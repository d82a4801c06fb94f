"""Opt-in concurrency sanitizer: checked locks + guarded-attribute guards.

The store/cache layer documents its locking discipline statically (the
``# guarded by: self._lock`` annotations checked by :mod:`repro.lint`'s
RPR001).  This module is the *dynamic* half: set ``REPRO_SANITIZE=1`` in the
environment and

* every lock built through :func:`make_lock` becomes a :class:`CheckedLock`
  that tracks per-thread held-lock sets and raises :class:`LockOrderError`
  on self-deadlock (re-acquiring a held non-reentrant lock) and on
  lock-order inversions (acquiring A while holding B after some thread
  acquired B while holding A — the classic ABBA deadlock, reported on the
  *second* order even when it does not deadlock this time);
* :func:`install_guards` wraps the named attributes of a class in data
  descriptors that raise :class:`GuardedAccessError` when the attribute is
  read or written without the guarding :class:`CheckedLock` held (accesses
  from the instance's own ``__init__`` are exempt, matching RPR001).

With ``REPRO_SANITIZE`` unset (the default) :func:`make_lock` returns a
plain ``threading.Lock`` and :func:`install_guards` only records the
guarded-attribute spec — zero overhead on the production read path.

The order graph holds strong references to every :class:`CheckedLock` that
ever participated in a nesting, so per-object locks accumulate for the
process lifetime under the sanitizer; that is the price of stable edge
identity and is acceptable for test runs, which is the only place the
sanitizer is meant to be on.
"""

from __future__ import annotations

import os
import sys
import threading
import traceback
from typing import (Any, Callable, Dict, Hashable, Iterable, Optional, Tuple,
                    TypeVar, Union)

__all__ = [
    "CheckedLock",
    "Counters",
    "GuardedAccessError",
    "LockOrderError",
    "LockUsageError",
    "SanitizerError",
    "SingleFlight",
    "guard_specs",
    "install_guards",
    "make_lock",
    "sanitize_enabled",
]

_FALSEY = {"", "0", "false", "no", "off"}


def sanitize_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` asks for the checked-lock sanitizer."""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() not in _FALSEY


class SanitizerError(RuntimeError):
    """Base class for everything the concurrency sanitizer reports."""


class LockOrderError(SanitizerError):
    """A lock-order inversion (ABBA) or a self-deadlock was detected."""


class LockUsageError(SanitizerError):
    """A lock was released by a thread that does not hold it."""


class GuardedAccessError(SanitizerError):
    """A guarded attribute was touched without its lock held."""


# --------------------------------------------------------------------------
# Checked locks
# --------------------------------------------------------------------------

_STATE = threading.local()  # per-thread stack of currently held CheckedLocks


def _held_stack() -> list:
    stack = getattr(_STATE, "held", None)
    if stack is None:
        stack = []
        _STATE.held = stack
    return stack


# (id(first), id(second)) -> formatted stack of where that order was first
# seen.  _ORDER_KEEP pins the locks so ids cannot be recycled.
_ORDER_LOCK = threading.Lock()
_ORDER_EDGES: Dict[Tuple[int, int], str] = {}
_ORDER_KEEP: Dict[int, "CheckedLock"] = {}


def _acquire_site() -> str:
    # Drop the two sanitizer-internal frames at the tail of the stack.
    return "".join(traceback.format_stack()[:-2]) or "<no traceback>\n"


class CheckedLock:
    """A non-reentrant mutex that reports misuse instead of deadlocking.

    Drop-in for ``threading.Lock()`` (``acquire``/``release``/``with``) plus
    :meth:`held`, which the guarded-attribute descriptors use to verify the
    calling thread holds the guard.
    """

    def __init__(self, name: str = "lock"):
        self.name = name
        self._lock = threading.Lock()
        self._owner: Optional[int] = None  # thread ident while held

    def held(self) -> bool:
        """True iff the *calling* thread holds this lock."""
        return self._owner == threading.get_ident()

    def _is_owned(self) -> bool:
        # ``threading.Condition`` probes ownership through this hook; without
        # it the fallback probe calls ``acquire(False)`` on a held lock, which
        # the order checker reports as a self-deadlock.
        return self.held()

    def locked(self) -> bool:
        return self._lock.locked()

    def _check_order(self) -> None:
        stack = _held_stack()
        if self in stack:
            raise LockOrderError(
                f"self-deadlock: thread already holds {self.name!r} "
                f"(non-reentrant) and is acquiring it again")
        if not stack:
            return
        with _ORDER_LOCK:
            for prior in stack:
                first_seen = _ORDER_EDGES.get((id(self), id(prior)))
                if first_seen is not None:
                    raise LockOrderError(
                        f"lock-order inversion: acquiring {self.name!r} while "
                        f"holding {prior.name!r}, but the opposite order "
                        f"({prior.name!r} after {self.name!r}) was taken "
                        f"earlier at:\n{first_seen}current acquisition "
                        f"at:\n{_acquire_site()}")
            site = _acquire_site()
            for prior in stack:
                _ORDER_EDGES.setdefault((id(prior), id(self)), site)
                _ORDER_KEEP[id(prior)] = prior
            _ORDER_KEEP[id(self)] = self

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._check_order()
        got = self._lock.acquire(blocking, timeout)
        if got:
            self._owner = threading.get_ident()
            _held_stack().append(self)
        return got

    def release(self) -> None:
        if not self.held():
            raise LockUsageError(
                f"release of {self.name!r} by a thread that does not hold it")
        stack = _held_stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is self:
                del stack[i]
                break
        self._owner = None
        self._lock.release()

    def __enter__(self) -> "CheckedLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> bool:
        self.release()
        return False

    def __repr__(self) -> str:
        state = "held" if self._lock.locked() else "free"
        return f"<CheckedLock {self.name!r} {state}>"


LockLike = Union[CheckedLock, threading.Lock]


def make_lock(name: str = "lock") -> LockLike:
    """A mutex for a guarded structure: checked under ``REPRO_SANITIZE``.

    Call sites pay nothing when the sanitizer is off — they get a plain
    ``threading.Lock``.
    """
    if sanitize_enabled():
        return CheckedLock(name)
    return threading.Lock()


# --------------------------------------------------------------------------
# Guarded attributes
# --------------------------------------------------------------------------

#: "module.Class" -> {lock attribute -> guarded attribute names}.  Always
#: populated (sanitizer on or off) so tests can cross-check it against the
#: static ``# guarded by:`` annotations.
_GUARD_SPECS: Dict[str, Dict[str, Tuple[str, ...]]] = {}


def guard_specs() -> Dict[str, Dict[str, Tuple[str, ...]]]:
    """A copy of every :func:`install_guards` registration."""
    return {cls: dict(spec) for cls, spec in _GUARD_SPECS.items()}


def _caller_is_init_of(obj) -> bool:
    frame = sys._getframe(2)
    while frame is not None:
        if (frame.f_code.co_name == "__init__"
                and frame.f_locals.get("self") is obj):
            return True
        frame = frame.f_back
    return False


class _GuardedAttr:
    """Data descriptor enforcing "hold the lock to touch the attribute".

    Wraps the original slot descriptor when the class uses ``__slots__``;
    otherwise the value lives in the instance ``__dict__`` (safe because a
    data descriptor always wins the lookup).
    """

    def __init__(self, attr: str, lock_attr: str, base=None):
        self._attr = attr
        self._lock_attr = lock_attr
        self._base = base

    def _check(self, obj, verb: str) -> None:
        lock = getattr(obj, self._lock_attr, None)
        if not isinstance(lock, CheckedLock) or lock.held():
            return
        if _caller_is_init_of(obj):
            return
        raise GuardedAccessError(
            f"{verb} of {type(obj).__name__}.{self._attr} without holding "
            f"{type(obj).__name__}.{self._lock_attr} ({lock.name!r})")

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        self._check(obj, "read")
        if self._base is not None:
            return self._base.__get__(obj, objtype)
        try:
            return obj.__dict__[self._attr]
        except KeyError:
            raise AttributeError(self._attr) from None

    def __set__(self, obj, value) -> None:
        self._check(obj, "write")
        if self._base is not None:
            self._base.__set__(obj, value)
        else:
            obj.__dict__[self._attr] = value

    def __delete__(self, obj) -> None:
        self._check(obj, "delete")
        if self._base is not None:
            self._base.__delete__(obj)
        else:
            del obj.__dict__[self._attr]


def install_guards(cls: type, lock_attr: str, attrs: Iterable[str]) -> type:
    """Declare (and, under ``REPRO_SANITIZE``, enforce) guarded attributes.

    The (class, lock, attributes) spec is always recorded — it mirrors the
    static ``# guarded by:`` annotations and is cross-checked by tests.
    Enforcing descriptors are installed only when the sanitizer is enabled
    at class-definition time, and only bite on instances whose ``lock_attr``
    actually is a :class:`CheckedLock` (i.e. built via :func:`make_lock`
    under the same setting).
    """
    spec = _GUARD_SPECS.setdefault(f"{cls.__module__}.{cls.__qualname__}", {})
    spec[lock_attr] = tuple(attrs)
    if not sanitize_enabled():
        return cls
    for attr in spec[lock_attr]:
        base = cls.__dict__.get(attr)  # slot member descriptor, if any
        setattr(cls, attr, _GuardedAttr(attr, lock_attr, base))
    return cls


# --------------------------------------------------------------------------
# Counters
# --------------------------------------------------------------------------

class Counters:
    """A fixed set of named monotonic counters behind one lock.

    The one way the store and the byte sources count: a component declares
    its names once, bumps them with :meth:`add` from any thread, and its
    ``stats()`` view reads one :meth:`snapshot`.  An undeclared name raises
    ``KeyError``, so a typo cannot start a counter nobody reads.
    """

    def __init__(self, names: Iterable[str]):
        self._lock = make_lock("Counters._lock")
        self._values: Dict[str, int] = dict.fromkeys(names, 0)  # guarded by: self._lock

    def add(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._values[name] += n

    def snapshot(self) -> Dict[str, int]:
        """Every counter's value, read under one lock acquisition."""
        with self._lock:
            return dict(self._values)


install_guards(Counters, "_lock", ("_values",))


# --------------------------------------------------------------------------
# Single-flight loading
# --------------------------------------------------------------------------

T = TypeVar("T")


class _Flight(threading.Event):
    """One in-progress load: waiters block on it, then read its outcome."""
    value: Any = None
    error: Optional[BaseException] = None


class SingleFlight:
    """Coalesce concurrent loads of one key onto a single call.

    The first caller of a key (the *owner*) runs ``load()``; callers that
    arrive while it runs block, then share its value or re-raise its
    exception.  Nothing outlives the load, so a failure is retried by the
    next caller, and loads of different keys never wait on each other.
    Caching stays with the caller: ``load`` re-checks the cache (a flight may
    have ended just after the caller missed) and publishes its result.
    """

    def __init__(self) -> None:
        self._lock = make_lock("SingleFlight._lock")
        self._flights: Dict[Hashable, _Flight] = {}  # guarded by: self._lock

    def run(self, key: Hashable, load: Callable[[], T]) -> Tuple[T, bool]:
        """``(value, owner)``: ``owner`` is True iff this call ran ``load``."""
        mine = _Flight()
        with self._lock:
            flight = self._flights.setdefault(key, mine)
        if flight is not mine:
            flight.wait()
            if flight.error is not None:
                raise flight.error
            return flight.value, False
        try:
            flight.value = load()
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._lock:
                del self._flights[key]
            flight.set()
        return flight.value, True


install_guards(SingleFlight, "_lock", ("_flights",))
