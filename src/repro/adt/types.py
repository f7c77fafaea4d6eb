"""The ESQL type system: ADTs, generic collection ADTs and subtyping.

The paper's model (section 2.1):

* a fixed set of atomic types extended by user-declared ADTs;
* *generic* ADTs -- ``tuple``, ``set``, ``bag``, ``list``, ``array`` --
  that are higher-order constructors combinable at multiple levels;
* collections organised along an inheritance hierarchy rooted at
  ``collection`` (Figure 1);
* ``OBJECT`` types whose instances carry an identifier, with single
  inheritance (``SUBTYPE OF``) between object types;
* the ISA predicate for subtype checking used in rule constraints.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from repro.errors import TypeSystemError

__all__ = [
    "DataType",
    "AtomicType",
    "AnyType",
    "EnumerationType",
    "TupleType",
    "CollectionType",
    "ObjectType",
    "TypeSystem",
    "BOOLEAN",
    "INT",
    "REAL",
    "NUMERIC",
    "CHAR",
    "STRING",
    "ANY",
]


class DataType:
    """Abstract base of every ESQL type."""

    name: str

    def is_collection(self) -> bool:
        return False

    def is_object(self) -> bool:
        return False

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.name == other.name

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.name))


class AtomicType(DataType):
    """A built-in scalar type (NUMERIC, INT, REAL, CHAR, BOOLEAN)."""

    def __init__(self, name: str):
        self.name = name.upper()


class AnyType(DataType):
    """The top type; every type is a subtype of ANY.

    Used for untyped intermediate expressions and as the element type of
    empty collection literals.
    """

    def __init__(self):
        self.name = "ANY"


BOOLEAN = AtomicType("BOOLEAN")
INT = AtomicType("INT")
REAL = AtomicType("REAL")
NUMERIC = AtomicType("NUMERIC")
CHAR = AtomicType("CHAR")
STRING = AtomicType("CHAR")  # the paper uses CHAR for strings
ANY = AnyType()


class EnumerationType(DataType):
    """``TYPE name ENUMERATION OF ('a', 'b', ...)`` (Figure 2, Category)."""

    def __init__(self, name: str, literals: Sequence[str]):
        if not literals:
            raise TypeSystemError(f"enumeration {name!r} needs literals")
        self.name = name
        self.literals = tuple(literals)
        if len(set(self.literals)) != len(self.literals):
            raise TypeSystemError(f"duplicate literal in enumeration {name!r}")

    def contains(self, literal: str) -> bool:
        return literal in self.literals


class TupleType(DataType):
    """``TUPLE (field : type, ...)`` -- named for user ADTs, or anonymous."""

    def __init__(self, name: str,
                 fields: Mapping[str, DataType] | Iterable[tuple[str, DataType]]):
        self.name = name
        items = tuple(fields.items()) if isinstance(fields, Mapping) \
            else tuple(fields)
        if not items:
            raise TypeSystemError(f"tuple type {name!r} needs fields")
        self.fields = items
        self._by_name = {fname.upper(): ftype for fname, ftype in items}
        if len(self._by_name) != len(items):
            raise TypeSystemError(f"duplicate field in tuple type {name!r}")

    @property
    def field_names(self) -> tuple[str, ...]:
        return tuple(fname for fname, __ in self.fields)

    def field_type(self, field: str) -> DataType:
        try:
            return self._by_name[field.upper()]
        except KeyError:
            raise TypeSystemError(
                f"tuple type {self.name!r} has no field {field!r}; "
                f"fields are {list(self.field_names)}"
            ) from None

    def has_field(self, field: str) -> bool:
        return field.upper() in self._by_name


# The collection hierarchy of Figure 1: collection is the root, the four
# concrete kinds are its direct subtypes.
COLLECTION_KINDS = ("COLLECTION", "SET", "BAG", "LIST", "ARRAY")


class CollectionType(DataType):
    """``SET OF t``, ``BAG OF t``, ``LIST OF t``, ``ARRAY OF t``.

    ``COLLECTION OF t`` is the abstract root used for functions defined at
    the collection level (Convert, IsEmpty, Equal, Insert, Remove).
    """

    def __init__(self, kind: str, element: DataType,
                 name: Optional[str] = None):
        kind = kind.upper()
        if kind not in COLLECTION_KINDS:
            raise TypeSystemError(f"unknown collection kind {kind!r}")
        self.kind = kind
        self.element = element
        self.name = name or f"{kind} OF {element.name}"

    def is_collection(self) -> bool:
        return True

    def __eq__(self, other) -> bool:
        return (isinstance(other, CollectionType)
                and self.kind == other.kind
                and self.element == other.element)

    def __hash__(self) -> int:
        return hash(("collection", self.kind, self.element))


class ObjectType(DataType):
    """``TYPE name OBJECT TUPLE (...)`` with optional ``SUBTYPE OF``.

    Instances are object references; the bound value has the (merged)
    tuple type.  Methods declared with ``FUNCTION`` are recorded by name so
    the rewriter can type-check method calls.
    """

    def __init__(self, name: str, value_type: TupleType,
                 supertype: Optional["ObjectType"] = None,
                 methods: Iterable[str] = ()):
        self.name = name
        self.supertype = supertype
        self.own_value_type = value_type
        merged: list[tuple[str, DataType]] = []
        if supertype is not None:
            merged.extend(supertype.value_type.fields)
        own_names = {f.upper() for f, __ in value_type.fields}
        merged = [(f, t) for f, t in merged if f.upper() not in own_names]
        merged.extend(value_type.fields)
        self.value_type = TupleType(f"{name}$value", merged)
        self.methods = tuple(methods)

    def is_object(self) -> bool:
        return True

    def ancestors(self) -> Iterable["ObjectType"]:
        t: Optional[ObjectType] = self
        while t is not None:
            yield t
            t = t.supertype


class TypeSystem:
    """The catalog of named types plus the subtype (ISA) relation.

    This is the extensibility surface of section 2.1: a database
    implementor registers new ADTs here, and the generic ADT constructors
    combine them at multiple levels.
    """

    def __init__(self):
        self._types: dict[str, DataType] = {}
        for atom in (BOOLEAN, INT, REAL, NUMERIC, CHAR):
            self._types[atom.name] = atom
        self._types["ANY"] = ANY
        # bumped by every definition (part of the catalog epoch)
        self.version = 0

    # -- definition --------------------------------------------------------
    def define(self, dtype: DataType) -> DataType:
        key = dtype.name.upper()
        if key in self._types:
            raise TypeSystemError(f"type {dtype.name!r} already defined")
        self._types[key] = dtype
        self.version += 1
        return dtype

    def define_enumeration(self, name: str,
                           literals: Sequence[str]) -> EnumerationType:
        return self.define(EnumerationType(name, literals))  # type: ignore

    def define_tuple(self, name: str,
                     fields: Iterable[tuple[str, DataType]]) -> TupleType:
        return self.define(TupleType(name, fields))  # type: ignore

    def define_collection(self, name: str, kind: str,
                          element: DataType) -> CollectionType:
        return self.define(CollectionType(kind, element, name))  # type: ignore

    def define_object(self, name: str, fields: Iterable[tuple[str, DataType]],
                      supertype: Optional[str] = None,
                      methods: Iterable[str] = ()) -> ObjectType:
        parent: Optional[ObjectType] = None
        if supertype is not None:
            candidate = self.lookup(supertype)
            if not isinstance(candidate, ObjectType):
                raise TypeSystemError(
                    f"SUBTYPE OF target {supertype!r} is not an object type"
                )
            parent = candidate
        value_type = TupleType(f"{name}$own", fields)
        return self.define(  # type: ignore[return-value]
            ObjectType(name, value_type, parent, methods)
        )

    # -- lookup ------------------------------------------------------------
    def lookup(self, name: str) -> DataType:
        try:
            return self._types[name.upper()]
        except KeyError:
            raise TypeSystemError(f"unknown type {name!r}") from None

    def lookup_or_none(self, name: str) -> Optional[DataType]:
        return self._types.get(name.upper())

    def is_defined(self, name: str) -> bool:
        return name.upper() in self._types

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._types))

    # -- subtyping (the ISA predicate) --------------------------------------
    def isa(self, sub: DataType, sup: DataType) -> bool:
        """True when ``sub`` is ``sup`` or a subtype of ``sup``.

        The rules, following the paper:

        * every type ISA ANY;
        * object types follow the declared SUBTYPE OF chain;
        * SET/BAG/LIST/ARRAY OF t ISA COLLECTION OF t (Figure 1) and
          collections are covariant in their element type;
        * INT and REAL are subtypes of NUMERIC;
        * an enumeration is a subtype of CHAR (its literals are strings).
        """
        if isinstance(sup, AnyType):
            return True
        if isinstance(sub, AnyType):
            return False
        if sub == sup:
            return True
        if isinstance(sub, ObjectType) and isinstance(sup, ObjectType):
            return any(anc.name == sup.name for anc in sub.ancestors())
        if isinstance(sub, CollectionType) and isinstance(sup, CollectionType):
            kind_ok = sup.kind == "COLLECTION" or sup.kind == sub.kind
            return kind_ok and self.isa(sub.element, sup.element)
        if isinstance(sub, AtomicType) and isinstance(sup, AtomicType):
            return sub.name in ("INT", "REAL") and sup.name == "NUMERIC"
        if isinstance(sub, EnumerationType) and isinstance(sup, AtomicType):
            return sup.name == "CHAR"
        return False

    def isa_name(self, sub_name: str, sup_name: str) -> bool:
        return self.isa(self.lookup(sub_name), self.lookup(sup_name))
