"""Values the command-line parser needs, kept apart so that building it
imports no computing module.  `core`, `pool` and `verify` re-export them."""

__all__ = ["DEFAULT_MEMORY_BUDGET", "DEFAULT_SEED", "SUITE_NAMES"]

DEFAULT_MEMORY_BUDGET = 1 << 30  # bytes of working memory batch_table may use
DEFAULT_SEED = 20260810  # seed of the verification pools
SUITE_NAMES = (
    "closed-forms",
    "identities",
    "strategies",
    "density-zero",
    "density-one",
    "blocks",
    "decrease",
    "window-step",
    "diagram",
)
