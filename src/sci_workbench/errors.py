"""Exception types shared across the workbench."""


class WorkbenchError(Exception):
    """Base class for every error raised by this package."""


class BudgetExceeded(WorkbenchError):
    """An algorithm protocol did not terminate within its query budget."""


class UnknownQuery(WorkbenchError):
    """An emitted query id does not resolve in the problem's query family."""


class ProtocolViolation(WorkbenchError):
    """A protocol yielded a non-query step, or finished without querying."""


class IndexArityMismatch(WorkbenchError):
    """A tower was addressed with a multi-index of the wrong length."""


class FactorizationMismatch(WorkbenchError):
    """The supplied query/table data does not reproduce the target on the catalog."""


class ProblemMismatch(WorkbenchError):
    """Two reductions were composed across different middle problems."""


class TagIncompatible(WorkbenchError):
    """Decoder class tags that do not compose."""


class PlanGap(WorkbenchError):
    """An algorithm emitted a query the reduction's plan does not cover."""


class IndeterminateHeight(WorkbenchError):
    """An operation needed exact heights but got a strict interval."""


class UnverifiedReduction(WorkbenchError):
    """A certificate operation was handed a reduction without a passing report."""


class MissingClause(WorkbenchError):
    """One of the clauses of a sufficiency package fails.

    ``clause`` identifies the failing clause ("C1", "C2" or "C3").
    """

    def __init__(self, clause: str, detail: str = ""):
        self.clause = clause
        self.detail = detail
        super().__init__(f"{clause}: {detail}" if detail else clause)


class DegenerateInterval(WorkbenchError):
    """A construction that needs a < b was given a one-point interval."""


class WindowOutsideDomain(WorkbenchError):
    """A window point does not lie in its declared compact domain."""


class UnsupportedKind(WorkbenchError):
    """An input description kind without the required exact oracle."""


class UncertifiedStabilizer(WorkbenchError):
    """A stabilizing block whose spectrum cannot be certified away from the window domain."""


class GridTooCoarse(WorkbenchError):
    """Grid spacing or extent is insufficient for the requested epsilon set."""


class BadGrid(WorkbenchError, ValueError):
    """A sampling grid that is not a finite rectangle or has more points than the budget."""


class EmptySet(WorkbenchError):
    """A compact-set operation received no points."""


class EmptyInputClass(WorkbenchError):
    """A construction that needs a nonempty input catalog was given an empty one."""


class EmptyQueryFamily(WorkbenchError):
    """A construction that needs a nonempty query family was given an empty one."""


class CatalogError(WorkbenchError):
    """Malformed or unknown catalog data."""


class UsageError(WorkbenchError):
    """Command line arguments that do not match the documented grammar."""


class NonFiniteReport(WorkbenchError):
    """A run report holding Infinity or NaN, which strict JSON cannot encode."""


class UnprintableReport(WorkbenchError):
    """A run report holding an exact number with more digits than the interpreter converts to a string."""


class WeightOutOfRange(ValueError):
    """A Koopman weight whose double is 0 or infinite, or weights whose weighted matrix leaves double range.

    Like any other rational out of double range, the CLI reports it as a bad argument value.
    """
