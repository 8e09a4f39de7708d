"""Exception hierarchy shared by all modules."""


class QinstrError(Exception):
    """Base class for all toolkit errors."""


class NotHermitian(QinstrError):
    pass


class NoConvergence(QinstrError):
    pass


class DimensionMismatch(QinstrError):
    pass


class NotPositive(QinstrError):
    pass


class BadTrace(QinstrError):
    pass


class LabelMismatch(QinstrError):
    pass


class UnknownOutcome(QinstrError):
    pass


class SingularNormalizer(QinstrError):
    pass


class SingularAprioriState(QinstrError):
    pass


class SchemaError(QinstrError):
    pass


class UnknownFormat(QinstrError):
    pass
