"""One idiom for immutable values, shared by every module of the package."""

from __future__ import annotations


class Frozen:
    """Base of the package's immutable value types.

    Subclasses declare __slots__ and fill them once with object.__setattr__;
    any later assignment raises. Equality and hashing compare _key(), which
    defaults to every slot in declaration order.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())
