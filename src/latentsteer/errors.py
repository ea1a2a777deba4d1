"""Exception types shared across the package."""


class LatentSteerError(Exception):
    """Base class for all errors raised by latentsteer."""


class DimensionMismatchError(LatentSteerError, ValueError):
    """Two objects that must share a latent dimension do not."""

    def __init__(self, expected: int, got: int, what: str = "vector"):
        self.expected = int(expected)
        self.got = int(got)
        super().__init__(
            f"{what} dimension mismatch: expected {expected}, got {got}"
        )


class DegenerateModelError(LatentSteerError, ValueError):
    """A direction vector has zero norm and defines no usable geometry."""


class UnlearnableAttributeError(LatentSteerError):
    """Training data cannot support the requested model (missing classes, too few samples)."""


class DivergenceError(LatentSteerError):
    """A Newton fit produced a non-finite gradient, or its penalty is past the float range."""

    def __init__(self, iteration: int, detail: str = ""):
        self.iteration = int(iteration)
        msg = f"training became non-finite at iteration {iteration}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class WorldConfigError(LatentSteerError, ValueError):
    """A synthetic-world configuration is invalid (e.g. non-PSD entanglement matrix)."""


class LayoutError(LatentSteerError, ValueError):
    """An image's block grid does not match the world's rendering layout."""


class BundleIncompleteError(LatentSteerError):
    """A model bundle does not cover its attribute schema."""


class ConditioningError(LatentSteerError, ValueError):
    """A conditioning request names unknown attributes or illegal target values."""


class FormatError(LatentSteerError, ValueError):
    """A persisted file has the wrong structure or format version."""
