"""Exception hierarchy shared by every sgdb module."""


class SgdbError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(SgdbError):
    """Schema definition or tuple/schema mismatch (bad field set, missing pk, ...)."""


class FieldCollisionError(SgdbError):
    """rename would overwrite a field that already exists in some row."""


class KeyCollisionError(SgdbError):
    """Two distinct inputs map to the same output key (flatten path or result row key)."""


class MissingJoinKeyError(SgdbError):
    """A join was requested with an absent or empty joining-field name."""


class NoCommonFieldError(SgdbError):
    """Natural join over relations whose field-name sets do not intersect."""


class NotJoinableError(SgdbError):
    """Natural join where the shared fields do not include the right relation's primary key."""


class StorageError(SgdbError):
    """Base class for table-file problems."""


class CorruptFileError(StorageError):
    """A table file that does not read back: bad magic, an unknown record tag,
    a checksum mismatch, a record key that is not UTF-8, a log that does not
    start with a schema record, a second schema record, a schema record that
    ``create_relation`` refuses, a payload that is not one JSON object, or a
    live record that ``model._check_row`` refuses for the schema.  The reader
    runs ``model``'s checks, the ones the writer runs, and has none of its own."""


class TableLockedError(StorageError):
    """Another handle holds the exclusive lock on the table file, whether in
    another process or in this one: the lock belongs to each open file."""


class UseAfterCloseError(StorageError):
    """Operation attempted on a closed table handle."""


class UnknownTableError(SgdbError):
    """A statement referenced a table that does not exist in the database
    directory; raised by any open of a missing table file."""


class TableExistsError(SgdbError):
    """create/import targeted a table name that is already in use."""


class DuplicateKeyError(SgdbError):
    """CSV import, or ``Database.load``, was given two rows with the same primary-key value."""


class MissingColumnError(SgdbError):
    """CSV import was given a primary-key column that is not in the header."""


class CsvFormatError(SgdbError):
    """A CSV data row does not line up with the header."""


class LexError(SgdbError):
    """Tokenizer failure; carries a 1-based position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class ParseError(SgdbError):
    """Parser failure; carries a 1-based position and the token kinds/texts expected there."""

    def __init__(self, message: str, line: int, col: int, expected: frozenset[str]):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col
        self.expected = expected
