"""A stand-in for the ``exceptiongroup`` backport of PEP 654's exception
groups, so that pytest and Hypothesis start on Python 3.10, which has neither
the builtin groups nor, on a machine without network, the backport.

It is not the backport.  It holds only what those two call: construction,
``message``, ``exceptions``, ``split``, ``subgroup``, ``derive`` and
``__class_getitem__``.  It patches no traceback formatting, so a report shows
a group's message but not its sub-exceptions' tracebacks, and it has no
``catch``.  ``ci/legs.sh`` lends it only to the Tier-1 leg of an interpreter
with neither the builtins nor the backport; CI installs the backport.
"""

from types import GenericAlias

__all__ = ["BaseExceptionGroup", "ExceptionGroup"]


class BaseExceptionGroup(BaseException):
    def __new__(cls, message, exceptions):
        if not isinstance(message, str):
            raise TypeError(f"argument 1 must be str, not {type(message).__name__}")
        exceptions = tuple(exceptions)
        if not exceptions:
            raise ValueError("second argument (exceptions) must be a non-empty sequence")
        if not all(isinstance(exc, BaseException) for exc in exceptions):
            raise ValueError("second argument (exceptions) must hold only exceptions")
        plain = all(isinstance(exc, Exception) for exc in exceptions)
        if cls is BaseExceptionGroup and plain:
            cls = ExceptionGroup
        elif issubclass(cls, Exception) and not plain:
            raise TypeError(f"Cannot nest BaseExceptions in {cls.__name__}")
        group = super().__new__(cls, message, exceptions)
        group._message, group._exceptions = message, exceptions
        return group

    __class_getitem__ = classmethod(GenericAlias)

    @property
    def message(self):
        return self._message

    @property
    def exceptions(self):
        return self._exceptions

    def __str__(self):
        n = len(self._exceptions)
        return f"{self._message} ({n} sub-exception{'s' if n > 1 else ''})"

    def __repr__(self):
        return f"{type(self).__name__}({self._message!r}, {list(self._exceptions)!r})"

    def derive(self, excs):
        return BaseExceptionGroup(self._message, excs)

    def split(self, condition):
        """(the matching part, the rest) as groups of this shape, each None
        when empty; ``condition`` is a type, a tuple of types or a predicate."""
        if isinstance(condition, (type, tuple)):
            types = condition
            condition = lambda exc: isinstance(exc, types)  # noqa: E731
        if condition(self):
            return self, None
        match, rest = [], []
        for exc in self._exceptions:
            if isinstance(exc, BaseExceptionGroup):
                inner_match, inner_rest = exc.split(condition)
                match += [inner_match] if inner_match is not None else []
                rest += [inner_rest] if inner_rest is not None else []
            else:
                (match if condition(exc) else rest).append(exc)
        return self._copy(match), self._copy(rest)

    def subgroup(self, condition):
        return self.split(condition)[0]

    def _copy(self, excs):
        if not excs:
            return None
        group = self.derive(excs)
        group.__cause__, group.__context__ = self.__cause__, self.__context__
        group.__traceback__ = self.__traceback__
        if hasattr(self, "__notes__"):
            group.__notes__ = list(self.__notes__)
        return group


class ExceptionGroup(BaseExceptionGroup, Exception):
    pass
