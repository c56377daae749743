"""Exception types shared across the toolkit."""


class BudgetExceededError(RuntimeError):
    """Raised instead of attempting a computation whose size exceeds the
    configured dimension or subset-count budget."""


class DisentangleRankError(ValueError):
    """A requested disentangling unitary does not exist for the given cut.

    Carries the offending Schmidt rank and the capacity threshold
    dim(cut) / d_free that it would have to respect.
    """

    def __init__(self, rank: int, capacity: int, cut, free_party: int):
        self.rank = rank
        self.capacity = capacity
        self.cut = tuple(cut)
        self.free_party = free_party
        super().__init__(
            f"not disentanglable with this cut: Schmidt rank {rank} across "
            f"{self.cut} exceeds capacity {capacity} for freeing party {free_party}"
        )


class ChannelCompletenessError(ValueError):
    """Kraus terms of a channel do not sum to the identity within tolerance."""
