"""Exceptions shared across the kernel. Each carries a stable machine code."""

from __future__ import annotations


class KernelError(Exception):
    """Base class; ``code`` is the stable identifier surfaced by the CLI."""

    code = "KERNEL_ERROR"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


class DimensionMismatch(KernelError):
    code = "DIMENSION_MISMATCH"


class NotEndomorphism(KernelError):
    code = "NOT_ENDOMORPHISM"


class NotCoendomorphism(KernelError):
    code = "NOT_COENDOMORPHISM"


class AlreadyTwisted(KernelError):
    code = "ALREADY_TWISTED"


class WrongSide(KernelError):
    code = "WRONG_SIDE"


class KindMismatch(KernelError):
    code = "KIND_MISMATCH"


class AlgebraMismatch(KernelError):
    code = "ALGEBRA_MISMATCH"


class CoalgebraMismatch(KernelError):
    code = "COALGEBRA_MISMATCH"


class FormatError(KernelError):
    code = "FORMAT_ERROR"
