"""sgdb: an embedded relational engine over a star-graph data model.

Each tuple is a star graph — the primary-key value at the center, one
labeled edge per field — held as a plain row dict, and a relation is a
keyed set of such rows.  ``relation_from_mapping`` is the checked builder:
it builds a relation from a literal and checks its rows.
``Relation(schema, rows)`` wraps rows as given and checks nothing, so the
operators, given hand-built rows whose values are not text or null, may raise
plain Python errors such as ``TypeError`` rather than an ``SgdbError``.
``Relation.bounded`` says that no row holds a field outside the schema;
only the engine sets it, where it has proved it: on what storage reads and
on what ``project``, the joins given columns and ``select`` of a bounded
relation build.  Rendering and the join rewrites then read the schema
instead of every row.  The package provides the relational operators over
that model, one-file-per-table persistence, a pipeline query language with
a REPL, CSV import/export, and a built-in differential-testing oracle.
"""

from sgdb.errors import (
    CorruptFileError,
    CsvFormatError,
    DuplicateKeyError,
    FieldCollisionError,
    KeyCollisionError,
    LexError,
    MissingColumnError,
    MissingJoinKeyError,
    NoCommonFieldError,
    NotJoinableError,
    ParseError,
    SchemaError,
    SgdbError,
    StorageError,
    TableExistsError,
    TableLockedError,
    UnknownTableError,
    UseAfterCloseError,
)
from sgdb.model import (
    Relation,
    Schema,
    create_relation,
    relation_equal,
    relation_from_mapping,
)
from sgdb.ops import (
    STAR,
    Condition,
    cartesian,
    inner_join,
    left_join,
    natural_join,
    outer_join,
    project,
    rename,
    right_join,
    select,
)
from sgdb.storage import Database, TableFile

__all__ = [
    "CorruptFileError",
    "CsvFormatError",
    "Condition",
    "Database",
    "DuplicateKeyError",
    "FieldCollisionError",
    "KeyCollisionError",
    "LexError",
    "MissingColumnError",
    "MissingJoinKeyError",
    "NoCommonFieldError",
    "NotJoinableError",
    "ParseError",
    "Relation",
    "STAR",
    "Schema",
    "SchemaError",
    "SgdbError",
    "StorageError",
    "TableExistsError",
    "TableFile",
    "TableLockedError",
    "UnknownTableError",
    "UseAfterCloseError",
    "cartesian",
    "create_relation",
    "inner_join",
    "left_join",
    "natural_join",
    "outer_join",
    "project",
    "relation_equal",
    "relation_from_mapping",
    "rename",
    "right_join",
    "select",
]
