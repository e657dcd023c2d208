"""Broadcast-with-side-information instances and the linear schemes serving them.

An instance lists, for each receiver, the messages it already holds and the
single message it demands. A scheme fixes one confined choice vector per
receiver (support inside that receiver's side information) and spans the
code from choice vector plus demand unit vector; the broadcast is then one
field element per generator row, and every receiver can recover its demand
from the broadcast and its own side information alone.

Receivers that already hold their demand contribute no generator row.
Multi-demand receivers are normalized to this single-demand form up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .algebra import (
    DimensionMismatchError,
    Field,
    FieldMismatchError,
    IndexOutOfRangeError,
    Matrix,
    Vector,
    unit_vector,
)
from .code import EmptyInputError, LinearCode


class IcsiError(Exception):
    """Base class for instance and scheme failures."""


class MalformedInstanceError(IcsiError):
    """Instance data is structurally invalid (bad indices, bad shapes)."""


class EmptyDemandError(IcsiError):
    """A receiver demands nothing."""


class ConfinementViolationError(IcsiError):
    """A choice vector has support outside its receiver's side information."""


class NotDecodableError(IcsiError):
    """No combination of broadcast and side information yields the demand."""


@dataclass(frozen=True)
class IcsiInstance:
    """n messages over a field, and per receiver a side-info set and a demand.

    side_info[j] is the 1-based index set X_j held by receiver j+1;
    demands[j] is the 1-based index of the message it wants.
    """

    field: Field
    n: int
    side_info: tuple[frozenset[int], ...]
    demands: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "side_info", tuple(frozenset(s) for s in self.side_info))
        object.__setattr__(self, "demands", tuple(int(d) for d in self.demands))
        if self.n < 1:
            raise MalformedInstanceError(f"need at least one message, got n={self.n}")
        if len(self.side_info) != len(self.demands):
            raise MalformedInstanceError(
                f"{len(self.side_info)} side-info sets but {len(self.demands)} demands"
            )
        if not self.demands:
            raise MalformedInstanceError("need at least one receiver")
        for j, (side, demand) in enumerate(zip(self.side_info, self.demands), start=1):
            if not 1 <= demand <= self.n:
                raise MalformedInstanceError(
                    f"receiver {j} demands message {demand}, outside [1, {self.n}]"
                )
            for i in side:
                if not (isinstance(i, int) and 1 <= i <= self.n):
                    raise MalformedInstanceError(
                        f"receiver {j} side-info index {i!r} outside [1, {self.n}]"
                    )

    @property
    def m(self) -> int:
        """Number of receivers."""
        return len(self.demands)

    def trivially_satisfied(self) -> tuple[int, ...]:
        """1-based receivers whose demand already sits in their side information."""
        return tuple(
            j
            for j, (side, demand) in enumerate(zip(self.side_info, self.demands), start=1)
            if demand in side
        )


def validate(instance: IcsiInstance) -> tuple[str, ...]:
    """Advisory findings about an instance; malformed data never gets here.

    Empty side-info sets and receivers that already hold their demand are
    legal, so they come back as notes rather than errors.
    """
    notes = []
    for j in instance.trivially_satisfied():
        notes.append(f"receiver {j} already holds its demand x_{instance.demands[j - 1]}")
    for j, side in enumerate(instance.side_info, start=1):
        if not side:
            notes.append(f"receiver {j} has no side information")
    return tuple(notes)


def split_multi_request(
    field: Field,
    n: int,
    side_info: Sequence[Iterable[int]],
    demand_sets: Sequence[Iterable[int]],
) -> IcsiInstance:
    """Normalize receivers demanding several messages to single demands.

    A receiver with d demands becomes d receivers sharing its side-info
    set, emitted in ascending demand order; receivers keep their relative
    order otherwise.
    """
    if len(side_info) != len(demand_sets):
        raise MalformedInstanceError(
            f"{len(side_info)} side-info sets but {len(demand_sets)} demand sets"
        )
    flat_sides: list[frozenset[int]] = []
    flat_demands: list[int] = []
    for j, (side, wants) in enumerate(zip(side_info, demand_sets), start=1):
        wanted = sorted(set(wants))
        if not wanted:
            raise EmptyDemandError(f"receiver {j} demands nothing")
        side_set = frozenset(side)
        for d in wanted:
            flat_sides.append(side_set)
            flat_demands.append(d)
    return IcsiInstance(field, n, tuple(flat_sides), tuple(flat_demands))


def default_choice_vectors(instance: IcsiInstance, policy: str = "indicator") -> tuple[Vector, ...]:
    """Built-in choice-vector policies.

    "indicator" puts a 1 on every side-info position; "zero" uses the zero
    vector, which spans the unit vectors of the demands.
    """
    if policy == "indicator":
        return tuple(
            Vector._raw(instance.field, tuple(1 if i + 1 in side else 0 for i in range(instance.n)))
            for side in instance.side_info
        )
    if policy == "zero":
        return tuple(Vector.zero(instance.field, instance.n) for _ in range(instance.m))
    raise ValueError(f"unknown choice policy {policy!r}")


@dataclass(frozen=True)
class Scheme:
    """An instance together with its choice vectors and the spanned code."""

    instance: IcsiInstance
    choice_vectors: tuple[Vector, ...]
    code: LinearCode

    @property
    def field(self) -> Field:
        return self.instance.field


def build_scheme(instance: IcsiInstance, choice_vectors: Sequence[Vector]) -> Scheme:
    """Span the code from one confined row per receiver needing a transmission.

    Receiver j with choice vector v contributes the row v + e_{f(j)};
    receivers already holding their demand contribute nothing. Dependent
    rows are tolerated, so k is the rank of the contributed rows.
    """
    if len(choice_vectors) != instance.m:
        raise DimensionMismatchError(
            f"{instance.m} receivers but {len(choice_vectors)} choice vectors"
        )
    field, n = instance.field, instance.n
    rows = []
    for j, (side, demand, v) in enumerate(
        zip(instance.side_info, instance.demands, choice_vectors), start=1
    ):
        if v.field != field:
            raise FieldMismatchError(f"choice vector {j} lives in a different field")
        if len(v) != n:
            raise DimensionMismatchError(
                f"choice vector {j} has length {len(v)}, expected {n}"
            )
        entries = v.entries
        stray = [i for i, value in enumerate(entries, start=1) if value and i not in side]
        if stray:
            raise ConfinementViolationError(
                f"choice vector {j} is nonzero outside X_{j} at {stray}"
            )
        if demand not in side:
            # v is zero at the demand, so v + e_demand puts a 1 there.
            rows.append(entries[: demand - 1] + (1,) + entries[demand:])
    if not rows:
        raise EmptyInputError("need at least one row")
    code = LinearCode(Matrix._raw(field, tuple(rows)))
    return Scheme(instance, tuple(choice_vectors), code)


def encode(scheme: Scheme, messages: Vector) -> Vector:
    """The broadcast G x^T, one field element per generator row."""
    return scheme.code.generator.times_col(messages)


def decoding_plan(scheme: Scheme, receiver: int) -> tuple[Vector, Vector]:
    """How a receiver combines broadcast and side information.

    Returns (y, u): y weights the broadcast symbols, u is supported inside
    the receiver's side-info set, and y G = u + e_f for the receiver's
    demand f, so x_f = y . s - u . x. A receiver that already holds its
    demand gets the direct plan y = 0, u = -e_f.
    """
    if not 1 <= receiver <= scheme.instance.m:
        raise IndexOutOfRangeError(f"receiver {receiver} outside [1, {scheme.instance.m}]")
    side = scheme.instance.side_info[receiver - 1]
    demand = scheme.instance.demands[receiver - 1]
    field = scheme.field
    if demand in side:
        y = Vector.zero(field, scheme.code.dimension)
        u = unit_vector(demand, scheme.instance.n, field).scaled(field.neg(1))
        return y, u
    found = scheme.code.confined_combination(side, demand)
    if found is None:
        raise NotDecodableError(
            f"receiver {receiver} cannot recover x_{demand} from its side information"
        )
    y, c = found
    return y, c - unit_vector(demand, scheme.instance.n, field)


def decode_receiver(
    scheme: Scheme, receiver: int, broadcast: Vector, side_values: Mapping[int, int]
) -> int:
    """Recover the receiver's demanded message value.

    side_values must cover the receiver's side-info set (1-based index to
    canonical value); an index outside [1, n] raises IndexOutOfRangeError.
    Raises NotDecodableError when the scheme contains no decoding
    combination for this receiver.
    """
    y, u = decoding_plan(scheme, receiver)
    field = scheme.field
    n = scheme.instance.n
    for i in side_values:
        if not 1 <= i <= n:
            raise IndexOutOfRangeError(f"side index {i} outside [1, {n}]")
    if broadcast.field != field:
        raise FieldMismatchError("broadcast lives in a different field")
    if len(broadcast) != scheme.code.dimension:
        raise DimensionMismatchError(
            f"broadcast has length {len(broadcast)}, expected {scheme.code.dimension}"
        )
    side = scheme.instance.side_info[receiver - 1]
    missing = sorted(i for i in side if i not in side_values)
    if missing:
        raise ValueError(f"missing side values for indices {missing}")
    total = y.dot(broadcast)
    acc = 0
    for i in sorted(side):
        acc = field.add(acc, field.mul(u.at(i), field.check_value(side_values[i])))
    return field.sub(total, acc)
