"""Exception types shared across the package."""


class QwprojError(Exception):
    """Base class for every error raised by this library."""


class DimensionMismatch(QwprojError):
    """A coin vector or matrix has the wrong dimension for its walk."""


class InvalidPosition(QwprojError):
    """A position key does not belong to the space."""


class SpaceMismatch(QwprojError):
    """Two states (or a state and an operator) live on incompatible spaces."""


class NotUnitary(QwprojError):
    """A coin matrix fails the unitarity tolerance."""


class MissingSigma(QwprojError):
    """A phase-weighted operation needs a sigma homomorphism."""


class NullProjection(QwprojError):
    """The projected state is (numerically) the zero vector."""


class InhomogeneousCoin(QwprojError):
    """The coin assignment varies within an equivalence class of rho."""


class GridTooCoarse(QwprojError):
    """Too few phase samples to resolve the requested sigma values."""


class InconsistentGrid(QwprojError):
    """Phase samples do not form a uniform grid of spacing 2*pi/M."""


class InvalidParameter(QwprojError):
    """An argument is out of range or malformed: a circle size, a non-coprime
    pair, an unknown scenario or displacement label, a bad state dump."""


class SubspaceNotInvariant(QwprojError):
    """The coin does not preserve the requested coin subspace."""


class StateOutsideSubspace(QwprojError):
    """The state has amplitude outside the requested coin subspace."""
