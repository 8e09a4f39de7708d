"""The toolkit's errors. ``harness.main`` maps an error to its exit code by
the phase it arose in, never by its class, so each error is its message, which
names the rule that failed, and a class says only what the phase's line prints:
a ``SchemaError`` is a break of the scenario file's typing rules, and a
``NoConvergence`` a numerical step that failed."""


class QinstrError(Exception):
    """An input that breaks a rule of a state, a law or an instrument."""


class SchemaError(QinstrError):
    """A file or flag that breaks the scenario file's typing rules (``harness``)."""


class NoConvergence(QinstrError):
    """A numerical step that failed: a LAPACK routine, an entropy or a normalizer."""
