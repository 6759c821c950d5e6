"""Exception hierarchy for the toolkit, and the base of its result records.

All library errors derive from ``NilformsError`` so callers can catch broadly;
the CLI maps subfamilies onto its exit codes.  ``_Record`` lives here because
every module that defines a result type already imports this one.
"""

from __future__ import annotations


class NilformsError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameter(NilformsError, ValueError):
    """An argument is malformed (bad scalar, wrong degree, float input, ...)."""


class IndexOutOfRange(NilformsError, IndexError):
    """A basis index lies outside 1..dim, or a bracket key is not i < j."""


class JacobiViolation(NilformsError, ValueError):
    """Structure constants fail the Jacobi identity.

    ``triple`` is a witness (i, j, k) on which the Jacobiator is nonzero.
    """

    def __init__(self, triple, message=""):
        self.triple = tuple(triple)
        detail = message or f"Jacobi identity fails; witness triple {self.triple}"
        super().__init__(detail)


class AmbientMismatch(NilformsError, ValueError):
    """Operands live over different algebras."""


class DimensionMismatch(NilformsError, ValueError):
    """A matrix or vector has the wrong shape for its algebra."""


class WrongDimension(NilformsError, ValueError):
    """The algebra dimension is outside the operation's domain."""


class OddDimension(WrongDimension):
    """An even-dimensional algebra is required."""


class NotNilpotent(NilformsError, ValueError):
    """The operation is only defined for nilpotent algebras."""


class NotClosed(NilformsError, ValueError):
    """A form expected to be a cocycle is not."""


class LeeFormNotClosed(NotClosed):
    """The twisting 1-form must be closed for d_theta^2 = 0."""


class OmegaNotClosed(NotClosed):
    """The 2-form driving a Lefschetz map must be closed."""


class CupObstruction(NilformsError, ValueError):
    """A Massey product is undefined because a required cup product is nonzero."""


class PreconditionFailed(NilformsError, ValueError):
    """A stated operation precondition does not hold for the given data."""


class DegenerateMetric(NilformsError, ValueError):
    """The symmetric matrix is not positive definite."""


class NotAlmostComplex(NilformsError, ValueError):
    """The matrix J does not satisfy J^2 = -Id."""


class NotHermitian(NilformsError, ValueError):
    """(g, J) is not a compatible Hermitian pair."""


class UnknownName(NilformsError, KeyError):
    """No catalog entry under that name."""


class SalamonSyntaxError(NilformsError, ValueError):
    """Structure-tuple text failed to parse.

    ``position`` is a 0-based offset into the input; ``expected`` lists the
    token kinds that would have been accepted there.
    """

    def __init__(self, message, position, expected=()):
        self.position = position
        self.expected = tuple(expected)
        suffix = f" at position {position}"
        if self.expected:
            suffix += f" (expected {', '.join(self.expected)})"
        super().__init__(message + suffix)


class SchemaViolation(NilformsError, ValueError):
    """A JSON document does not match its schema.

    ``pointer`` is a JSON-pointer path to the offending node.
    """

    def __init__(self, pointer, message):
        self.pointer = pointer
        super().__init__(f"{pointer or '/'}: {message}")


class InternalInvariantBreach(NilformsError, RuntimeError):
    """A result failed its own re-verification.  Always a bug, never user error."""


class _Record:
    """Base of the frozen result types: the annotated names of a subclass
    body, in order, are its fields.

    Fields are given positionally or by keyword; a value assigned in the
    class body is the field's default.  ``__post_init__`` runs after the
    fields are set.  Records of the same class are equal when their fields
    are, hash by their fields, print like ``Name(field=value, ...)`` and
    refuse assignment.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)  # own annotations only
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, "
                            f"got {len(args)} positional values")
        values = dict(zip(fields, args))
        for name in fields[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in self._defaults:
                values[name] = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__} is missing field {name!r}")
        if kwargs:
            raise TypeError(f"{type(self).__name__} got unexpected or repeated "
                            f"fields {sorted(kwargs)}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"
