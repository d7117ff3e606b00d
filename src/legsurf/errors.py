"""Exception types shared across the package."""


class GeometryDomainError(ValueError):
    """An input violates a geometric precondition (tangency, horizontality, base mismatch)."""


class DegenerateFrameError(ValueError):
    """A raw frame is rank deficient and cannot be retracted."""


class DegenerateFaceError(ValueError):
    """A mesh face has (numerically) collapsed."""

    def __init__(self, face_id, message=None):
        self.face_id = face_id
        super().__init__(message or f"degenerate face {face_id}")


class ConstraintViolationError(ValueError):
    """A sampled map fails its pointwise constraint; carries the worst offender."""

    def __init__(self, message, worst=None, residual=None):
        self.worst = worst
        self.residual = residual
        super().__init__(message)


class LocalisationError(ValueError):
    """A test Hamiltonian touches the image of the cut level set."""

    def __init__(self, message, face_id=None):
        self.face_id = face_id
        super().__init__(message)


class ResolutionError(ValueError):
    """A region is too coarsely meshed for the requested computation."""


class StepRejectedError(RuntimeError):
    """Constraint restoration did not converge; the caller should shrink the step."""

    def __init__(self, message, residual_before=None, residual_after=None):
        self.residual_before = residual_before
        self.residual_after = residual_after
        super().__init__(message)


class StageAbortedError(RuntimeError):
    """A descent stage ran out of admissible step sizes; ``result`` is the
    descent up to its last accepted step."""

    def __init__(self, message, diagnostics=None, result=None):
        self.diagnostics = diagnostics or {}
        self.result = result
        super().__init__(message)
