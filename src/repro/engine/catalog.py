"""The catalog: types, relations, views and integrity constraints.

The single source of truth shared by the ESQL translator, the rewriter
(through rule constraints and methods) and the evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from repro.adt.functions import default_registry
from repro.adt.registry import FunctionRegistry
from repro.adt.types import DataType, TypeSystem
from repro.adt.values import ObjectRef, ObjectStore
from repro.engine.storage import BaseRelation, VirtualRelation
from repro.errors import CatalogError
from repro.lera.schema import Schema
from repro.terms.term import Term

__all__ = ["Catalog", "ViewDef", "RESERVED_PREFIX"]

# The system-introspection namespace.  Names under this prefix are
# reserved for virtual relations registered by the engine itself; user
# DDL may not claim them (section "self-observability": the catalog is
# queryable through the same pipeline it describes).
RESERVED_PREFIX = "SYS."


@dataclass
class ViewDef:
    """A stored view: its LERA term (a FIX term when recursive)."""

    name: str
    term: Term
    schema: Schema
    recursive: bool = False
    source: str = ""


class Catalog:
    """Types, relations, views, integrity constraints and functions."""

    def __init__(self,
                 type_system: Optional[TypeSystem] = None,
                 registry: Optional[FunctionRegistry] = None,
                 objects: Optional[ObjectStore] = None):
        self.type_system = type_system or TypeSystem()
        self.registry = registry or default_registry()
        self.objects = objects or ObjectStore()
        self._relations: dict[str, BaseRelation] = {}
        self._views: dict[str, ViewDef] = {}
        # sys.* virtual relations: read-only, rows produced on demand,
        # never stored, never WAL-logged (durability iterates
        # _relations only, so virtuals stay out of snapshots and fsck)
        self._virtuals: dict[str, VirtualRelation] = {}
        # integrity constraints are stored as rewrite rules (section 6.1);
        # the list holds whatever rule objects repro.rules produces.
        self.integrity_constraints: list = []
        # bumped by every relation, view and virtual (re)definition
        self._epoch = 0

    @property
    def epoch(self) -> int:
        """Changes whenever a definition a plan can depend on changes:
        relations, views, virtual relations, types or functions (data
        changes leave it alone).  Plan caches compare it."""
        return (self._epoch + self.type_system.version
                + self.registry.version)

    # -- relations ---------------------------------------------------------
    def define_table(self, name: str,
                     columns: Sequence[tuple[str, DataType]],
                     primary_key: Sequence[str] = ()) -> BaseRelation:
        key = name.upper()
        if key.startswith(RESERVED_PREFIX):
            raise CatalogError(
                f"cannot create table {name!r}: the 'sys.' prefix is "
                f"reserved for system introspection relations"
            )
        if key in self._relations or key in self._views:
            raise CatalogError(f"relation {name!r} already exists")
        schema = Schema(columns)
        key_positions = tuple(
            schema.index_of(column) for column in primary_key
        )
        rel = BaseRelation(key, schema, key_positions)
        self._relations[key] = rel
        self._epoch += 1
        return rel

    def primary_key_of(self, name: str) -> tuple[int, ...]:
        """The declared key positions of a base table (empty if none)."""
        if not self.is_table(name):
            return ()
        return self.table(name).key

    def drop_table(self, name: str) -> None:
        key = name.upper()
        if key not in self._relations:
            raise CatalogError(f"unknown table {name!r}")
        del self._relations[key]
        self._epoch += 1

    def table(self, name: str) -> BaseRelation:
        try:
            return self._relations[name.upper()]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def is_table(self, name: str) -> bool:
        return name.upper() in self._relations

    def insert(self, name: str, row: Sequence[Any]) -> tuple:
        return self.table(name).insert(row, self.objects)

    def insert_many(self, name: str, rows: Iterable[Sequence[Any]]) -> int:
        return self.table(name).insert_many(rows, self.objects)

    def rows(self, name: str) -> list[tuple]:
        return self.table(name).rows

    def new_object(self, type_name: str, value: Any) -> ObjectRef:
        """Create an object instance of a declared object type."""
        dtype = self.type_system.lookup(type_name)
        from repro.adt.types import ObjectType
        if not isinstance(dtype, ObjectType):
            raise CatalogError(f"{type_name!r} is not an object type")
        from repro.engine.storage import coerce_value
        coerced = coerce_value(value, dtype.value_type, self.objects)
        return self.objects.create(dtype.name, coerced)

    # -- views ---------------------------------------------------------------
    def define_view(self, view: ViewDef) -> ViewDef:
        key = view.name.upper()
        if key.startswith(RESERVED_PREFIX):
            raise CatalogError(
                f"cannot create view {view.name!r}: the 'sys.' prefix "
                f"is reserved for system introspection relations"
            )
        if key in self._relations or key in self._views:
            raise CatalogError(f"relation {view.name!r} already exists")
        self._views[key] = view
        self._epoch += 1
        return view

    def drop_view(self, name: str) -> None:
        key = name.upper()
        if key not in self._views:
            raise CatalogError(f"unknown view {name!r}")
        del self._views[key]
        self._epoch += 1

    def view(self, name: str) -> Optional[ViewDef]:
        return self._views.get(name.upper())

    def is_view(self, name: str) -> bool:
        return name.upper() in self._views

    # -- virtual relations (the sys.* introspection catalog) ---------------
    def register_virtual(self, name: str,
                         columns: Sequence[tuple[str, DataType]],
                         producer,
                         description: str = "") -> VirtualRelation:
        """Register (or replace) a read-only on-demand relation.

        Only the engine calls this; ``name`` must live under the
        reserved ``sys.`` prefix precisely so it can never collide with
        user DDL.  Re-registration replaces the producer in place --
        the server re-registers richer producers (sessions, slow
        queries) over the database-only defaults when it mounts.
        """
        key = name.upper()
        if not key.startswith(RESERVED_PREFIX):
            raise CatalogError(
                f"virtual relation {name!r} must live under the "
                f"'sys.' namespace"
            )
        virtual = VirtualRelation(key, Schema(columns), producer,
                                  description)
        self._virtuals[key] = virtual
        self._epoch += 1
        return virtual

    def is_virtual(self, name: str) -> bool:
        return name.upper() in self._virtuals

    def virtual(self, name: str) -> VirtualRelation:
        try:
            return self._virtuals[name.upper()]
        except KeyError:
            raise CatalogError(
                f"unknown system relation {name!r}"
            ) from None

    def virtual_rows(self, name: str) -> list[tuple]:
        """Materialize one consistent snapshot of a sys.* relation."""
        return self.virtual(name).materialize(self.objects)

    def virtual_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._virtuals))

    # -- schema lookup (duck-typed interface used by repro.lera) -----------
    def relation_schema(self, name: str) -> Schema:
        key = name.upper()
        if key in self._relations:
            return self._relations[key].schema
        if key in self._views:
            return self._views[key].schema
        if key in self._virtuals:
            return self._virtuals[key].schema
        raise CatalogError(f"unknown relation {name!r}")

    def relation_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._relations))

    def view_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._views))
