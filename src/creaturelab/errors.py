"""Shared exception types, and the one refusal of a document key that no
decoder reads.

Every checker and transform fails loudly with one of these; no probabilistic
verdicts anywhere.
"""


class CreatureLabError(Exception):
    """Base class for all package-specific failures."""


class Indeterminate(CreatureLabError):
    """A comparison could not be decided within the configured budget.

    This is an honest "don't know", never a wrong order.
    """


class ModeUnsound(CreatureLabError):
    """The analytic shortcut was requested for a family it is not sound for."""


class SizeInfeasible(CreatureLabError):
    """A construction's size demands exceed the scale budget."""


class CapacityExceeded(CreatureLabError):
    """An input exceeds a declared capacity (range too large, too many parts...)."""


class NotNice(CreatureLabError):
    """A property replay required by a transform failed on some input parameter."""


class NotDecisive(CreatureLabError):
    """A decisiveness witness could not be produced for a creature."""


class ZeroNorm(CreatureLabError):
    """An operation that needs positive norm was applied to a norm-zero creature."""


class NormTooSmall(CreatureLabError):
    """A norm floor precondition (e.g. nor > 1 or nor > 2) is violated."""


class DomainMismatch(CreatureLabError):
    """Objects over incompatible index sets / levels / parameters were combined."""


class TypeMismatch(CreatureLabError):
    """Local types disagree where an operation requires them to match."""


class PreconditionFailed(CreatureLabError):
    """A transform's replay precondition does not hold for the given inputs."""


class OracleInconsistent(CreatureLabError):
    """A decision oracle contradicted itself during a stepwise construction."""


class ModulusTooDeep(CreatureLabError):
    """A name's decision modulus exceeds the fragment horizon."""


class NotSeparated(CreatureLabError):
    """A condition does not have the separated-support shape an operation needs."""


class DependsOnBeta(CreatureLabError):
    """An evasion name depends on the index it is supposed to evade."""


class UsageError(CreatureLabError):
    """Malformed input (CLI or JSON payload)."""


def refuse_unread(obj, keys, what) -> None:
    """Refuse a key of the document obj outside keys, naming it: a
    misspelled optional field would otherwise be read as absent and take
    its default.  An obj that is no JSON object is a TypeError, which a
    loader reports as a malformed document."""
    if not isinstance(obj, dict):
        raise TypeError(f"{what} is a {type(obj).__name__}, not an object")
    for key in obj:
        if key not in keys:
            raise UsageError(f"{what}: unknown key {key!r}")
