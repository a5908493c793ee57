"""The 64-bit tagged data word (paper figure 2).

:class:`Word` is the unit the whole simulator trades in: register file
cells, data-memory cells and trail entries are all Words.  A Word pairs
a 32-bit tag part with a 32-bit value part; constructors below build the
common shapes (integers, atoms, references, list/structure pointers).

Floats deserve a note: KCM uses 32-bit IEEE single precision (section
3.1.1, "32 bit IEEE data format").  We round every float value through
single precision so arithmetic results match what the FPU would
produce, observable in tests as reduced precision.
"""

from __future__ import annotations

import struct
from typing import Union

from repro.core.tags import (
    TAG_TYPE_SHIFT,
    TAG_ZONE_SHIFT,
    TYPE_BY_INDEX,
    TYPE_MASK,
    Type,
    Zone,
    ZONE_BY_INDEX,
    ZONE_MASK,
    make_tag,
    tag_gc_link,
    tag_gc_mark,
    tag_type,
    with_gc_link,
    with_gc_mark,
    VALUE_MASK,
)
from repro.errors import ArithmeticError_

# Signed range of the 32-bit value part, used for integer wrap-around.
INT_MIN = -(1 << 31)
INT_MAX = (1 << 31) - 1


def to_single_precision(x: float) -> float:
    """Round a Python float through IEEE single precision (the FPU's
    32-bit data format); a finite value beyond its range raises
    :class:`~repro.errors.ArithmeticError_`."""
    try:
        return struct.unpack("<f", struct.pack("<f", x))[0]
    except OverflowError:
        raise ArithmeticError_("float overflow") from None


def wrap_int32(n: int) -> int:
    """Wrap a Python integer into the signed 32-bit range of the value
    part, the way a 32-bit ALU would."""
    n &= 0xFFFFFFFF
    return n - (1 << 32) if n > INT_MAX else n


class Word:
    """One 64-bit KCM word: ``(tag, value)``.

    ``tag`` is the 32-bit tag part (see :mod:`repro.core.tags`);
    ``value`` is the 32-bit value part, held as a signed Python int for
    integers and as an unsigned word address for pointers.  Words are
    immutable; memory cells are replaced, never mutated.
    """

    __slots__ = ("tag", "value", "type", "zone")

    def __init__(self, tag: int, value: Union[int, float]):
        self.tag = tag
        self.value = value
        #: The 4-bit type and zone fields, decoded eagerly: reading
        #: ``.type``/``.zone`` are the hottest operations in the
        #: simulator (deref, bind, zone check, MWAC dispatch) and
        #: outnumber Word creations, so a plain slot beats a property
        #: frame per access.  The type decode is total over the 16
        #: possible field values; the zone decode leaves ``None`` in
        #: the slot for the 8 invalid encodings — accessors that must
        #: preserve the seed's raise-on-access behaviour (deref) call
        #: :func:`repro.core.tags.tag_zone` on the tag when they see
        #: ``None``.
        self.type = TYPE_BY_INDEX[(tag >> TAG_TYPE_SHIFT) & TYPE_MASK]
        self.zone = ZONE_BY_INDEX[(tag >> TAG_ZONE_SHIFT) & ZONE_MASK]

    # -- field accessors ----------------------------------------------------

    @property
    def gc_mark(self) -> bool:
        """The garbage-collection mark bit."""
        return tag_gc_mark(self.tag)

    @property
    def gc_link(self) -> bool:
        """The second garbage-collection bit."""
        return tag_gc_link(self.tag)

    def is_pointer(self) -> bool:
        """True when the value part is a data-space address."""
        t = tag_type(self.tag)
        return t in (Type.REF, Type.STRUCT, Type.LIST, Type.DATA_PTR,
                     Type.ENV_PTR, Type.CP_PTR, Type.TRAIL_PTR)

    def is_ref(self) -> bool:
        """True for reference words (type REF)."""
        return tag_type(self.tag) is Type.REF

    def is_number(self) -> bool:
        """True for the two numeric immediate types."""
        return tag_type(self.tag) in (Type.INT, Type.FLOAT)

    # -- TVM operations (section 3.1.1) -------------------------------------

    def with_gc_mark(self, value: bool) -> "Word":
        """Copy of this word with the GC mark bit set/cleared (TVM op)."""
        return Word(with_gc_mark(self.tag, value), self.value)

    def with_gc_link(self, value: bool) -> "Word":
        """Copy of this word with the GC link bit set/cleared (TVM op)."""
        return Word(with_gc_link(self.tag, value), self.value)

    def swapped(self) -> "Word":
        """Copy with tag and value parts exchanged (a TVM capability the
        paper lists; used by system code, exposed for completeness)."""
        return Word(int(self.value) & VALUE_MASK, self.tag)

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Word)
                and self.tag == other.tag and self.value == other.value)

    def __hash__(self) -> int:
        return hash((self.tag, self.value))

    def __repr__(self) -> str:
        t = self.type
        z = self.zone
        zone_part = f",{z.name}" if z is not None and z is not Zone.NONE \
            else ""
        return f"<{t.name}{zone_part}:{self.value}>"


# ---------------------------------------------------------------------------
# Constructors for the common word shapes
# ---------------------------------------------------------------------------

# Tag constants, precomputed once per (type, zone): the constructors
# below run inside the interpreter's hottest handlers, and packing the
# tag through make_tag on every call was measurable host overhead.
_INT_TAG = make_tag(Type.INT)
_FLOAT_TAG = make_tag(Type.FLOAT)
_ATOM_TAG = make_tag(Type.ATOM)
_NIL_TAG = make_tag(Type.NIL)
_FUNCTOR_TAG = make_tag(Type.FUNCTOR)
_CODE_PTR_TAG = make_tag(Type.CODE_PTR, Zone.CODE)
_REF_TAGS = {zone: make_tag(Type.REF, zone) for zone in Zone}
_LIST_TAGS = {zone: make_tag(Type.LIST, zone) for zone in Zone}
_STRUCT_TAGS = {zone: make_tag(Type.STRUCT, zone) for zone in Zone}
_DATA_PTR_TAGS = {zone: make_tag(Type.DATA_PTR, zone) for zone in Zone}


def make_int(n: int) -> Word:
    """An immediate 32-bit signed integer word (wraps like the ALU)."""
    return Word(_INT_TAG, wrap_int32(n))


def make_float(x: float) -> Word:
    """An immediate 32-bit IEEE float word (rounded to single precision)."""
    return Word(_FLOAT_TAG, to_single_precision(x))


def make_atom(atom_index: int) -> Word:
    """An atom constant; the value is an index into the atom table."""
    return Word(_ATOM_TAG, atom_index)


def make_nil() -> Word:
    """The empty-list constant ``[]``."""
    return Word(_NIL_TAG, 0)


def make_ref(address: int, zone: Zone) -> Word:
    """A reference (possibly unbound variable) pointing at ``address``."""
    return Word(_REF_TAGS[zone], address)


def make_unbound(address: int, zone: Zone) -> Word:
    """An unbound variable: a REF whose value is its own address (the
    standard WAM self-reference representation)."""
    return Word(_REF_TAGS[zone], address)


def make_list(address: int, zone: Zone = Zone.GLOBAL) -> Word:
    """A list pointer to a cons cell (two consecutive words) on the
    global stack."""
    return Word(_LIST_TAGS[zone], address)


def make_struct(address: int, zone: Zone = Zone.GLOBAL) -> Word:
    """A structure pointer to a functor cell on the global stack."""
    return Word(_STRUCT_TAGS[zone], address)


def make_functor(functor_index: int) -> Word:
    """A functor descriptor cell (name/arity id into the functor table)."""
    return Word(_FUNCTOR_TAG, functor_index)


def make_data_ptr(address: int, zone: Zone) -> Word:
    """An untyped data pointer used by the runtime system (stack links,
    choice-point fields, trail entries)."""
    return Word(_DATA_PTR_TAGS[zone], address)


def make_code_ptr(address: int) -> Word:
    """A pointer into the code address space (continuation pointers,
    alternative-clause addresses in choice points)."""
    return Word(_CODE_PTR_TAG, address)


#: A fixed all-zero word used to initialise memory; reads of it in tests
#: make uninitialised accesses obvious.
ZERO_WORD = make_int(0)
