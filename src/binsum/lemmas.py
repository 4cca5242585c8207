"""The ids of the supporting inequalities that `validators` checks.

They live apart from the validators' kernels so that the command line can
offer them as `validate --lemma` choices without loading `validators`.
`validators._LEMMAS` keys its registry on them, in this order."""

LEMMA_IDS = (
    "super-g-decay",
    "super-g-strict",
    "super-g-quartic",
    "super-h-cubic",
    "sub-f-cubic",
    "sub-g-decay",
    "near1-f-cubic",
    "near1-g-decay",
)
