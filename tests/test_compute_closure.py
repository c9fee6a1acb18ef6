"""Runtime closure checks on the cached routing compute and its worker task.

The persistent routing-table cache (:mod:`repro.par.cache`) keys each
table on an engine fingerprint: the source bytes of the modules in
``FINGERPRINT_MODULES``.  That key is sound only if the list covers
every module whose code the compute runs.  The prefix-parallel fan-out
(:mod:`repro.par.routing`) is sound only if a worker's task is a pure
function of its announcement.  Both properties are checked here on the
code as it runs, under :mod:`cProfile`: function-local imports and
``@property`` bodies show up like any other call.

- **Cache-key closure.**  ``RoutingEngine.compute_uncached`` runs over
  SMALL's 27 announcements and over the random worlds of
  :mod:`tests.test_routing_properties`, each input once plainly and once
  under ``provenance.capturing()``, with the flat-adjacency memo and the
  atlas's city-pair distance table emptied so that the code filling them
  runs too.  Every ``repro`` module that ran must be fingerprinted or
  result-neutral by design: ``repro.obs``, ``repro.explain`` and
  ``repro.par`` record, explain or ship tables, they do not compute them.
- **Worker task.**  ``_compute_task`` runs two passes over SMALL's
  announcements, with span capture off and on.  It must read no wall
  clock, draw no entropy and write no environment variable.  Every
  ``repro`` module that ran must be at a fixed point after the first
  pass: an idempotent memo is, a write on every call is not.  None of
  those modules may hold a lock, event, semaphore, open file or socket,
  which a ``fork`` copies into each worker in an undefined state.

Both checks see only what their inputs exercise.  Their coverage rests
on ``test_random_worlds_exercise_every_mechanism``, which asserts that
the random worlds reach every preference tier, break ties on exit km
and restrict some origins.
"""

from __future__ import annotations

import cProfile
import datetime
import io
import os
import random
import secrets
import socket
import subprocess
import sys
import textwrap
import threading
import time
import types
import uuid
import weakref
from collections.abc import MutableMapping, MutableSequence, MutableSet
from typing import Callable

import numpy
import pytest

from repro.explain import provenance
from repro.geo import atlas
from repro.par import routing as par_routing
from repro.par.cache import FINGERPRINT_MODULES
from repro.routing.engine import RoutingEngine
from repro.topology import flat
from tests.test_routing_properties import random_world

#: Module prefixes that may run on the compute path unfingerprinted.
RESULT_NEUTRAL = ("repro.obs", "repro.explain", "repro.par")

#: How cProfile labels each C function a worker task must not call.
FORBIDDEN_C_CALLS = {
    **{
        f"<built-in method {name}>": "reads the wall clock"
        for name in ("time.time", "time.time_ns", "time.localtime",
                     "time.gmtime", "time.ctime", "now", "today", "utcnow")
    },
    f"<built-in method {os.urandom.__module__}.urandom>": "draws OS entropy",
    f"<built-in method {os.putenv.__module__}.putenv>": "writes the environment",
    f"<built-in method {os.unsetenv.__module__}.unsetenv>":
        "writes the environment",
}

#: Modules whose Python code a worker task must not run.
FORBIDDEN_MODULES = ("random", "secrets", "uuid", "numpy.random")

#: Module-level objects that a ``fork`` duplicates in an undefined state.
FORK_HAZARDS = (
    type(threading.Lock()),
    type(threading.RLock()),
    threading.Condition,
    threading.Semaphore,
    threading.Event,
    io.IOBase,
    socket.socket,
)


def profiled(call: Callable[[], object]) -> list:
    """The cProfile entries of one ``call()``."""
    profiler = cProfile.Profile()
    profiler.runcall(call)
    return profiler.getstats()


def modules_that_ran(entries) -> set[str]:
    """Names of the modules whose Python code appears in ``entries``."""
    by_file = {
        os.path.realpath(module.__file__): name
        for name, module in list(sys.modules.items())
        if getattr(module, "__file__", None)
    }
    ran = set()
    for entry in entries:
        code = entry.code
        if isinstance(code, str):
            continue
        name = by_file.get(os.path.realpath(code.co_filename))
        if name is not None:
            ran.add(name)
    return ran


def under(name: str, packages: tuple[str, ...]) -> bool:
    """Whether module ``name`` is one of ``packages`` or inside one."""
    return any(name == p or name.startswith(p + ".") for p in packages)


def repro_modules(names: set[str]) -> set[str]:
    return {name for name in names if under(name, ("repro",))}


def snapshot(modules: set[str]) -> dict[str, dict[str, tuple]]:
    """Each module's globals as ``(object, length)``; the length of a
    dict, list or set global, else None."""
    sized = (MutableMapping, MutableSequence, MutableSet)
    return {
        module: {
            name: (value, len(value) if isinstance(value, sized) else None)
            for name, value in vars(sys.modules[module]).items()
        }
        for module in modules
    }


def state_moves(before: dict[str, dict[str, tuple]],
                after: dict[str, dict[str, tuple]]) -> list[str]:
    """How the globals of ``before``'s modules moved by ``after``, one
    line each: a name that appeared or vanished, a rebinding, or a
    dict, list or set global whose length changed."""
    moved = []
    for module, one in sorted(before.items()):
        two = after[module]
        for name in sorted(set(one) | set(two)):
            if name not in one or name not in two:
                moved.append(f"{module}.{name} appeared or vanished")
            elif two[name][0] is not one[name][0]:
                moved.append(f"{module}.{name} was rebound")
            elif two[name][1] != one[name][1]:
                moved.append(f"{module}.{name} went from {one[name][1]} "
                             f"to {two[name][1]} entries")
    return moved


def forbidden_calls(entries) -> set[str]:
    """What in ``entries`` a worker task must not do, one line each."""
    found = set()
    for entry in entries:
        code = entry.code
        if isinstance(code, str):
            reason = FORBIDDEN_C_CALLS.get(code)
            if reason is None and "'_random." in code:
                # A method of a C-level random.Random instance.
                reason = "draws from random"
            if reason is not None:
                found.add(f"{code} {reason}")
    for name in modules_that_ran(entries):
        if under(name, FORBIDDEN_MODULES):
            found.add(f"{name} ran")
    return found


# ----------------------------------------------------------------------
# Cache-key closure
# ----------------------------------------------------------------------

def _compute_all(inputs) -> None:
    for topology, announcement in inputs:
        RoutingEngine(topology).compute_uncached(announcement)


@pytest.fixture
def cold_memos(monkeypatch):
    """An empty flat-adjacency memo and city-pair distance table, so that
    the code filling them runs under the profile."""
    monkeypatch.setattr(atlas, "_KM_ROWS", [None] * len(atlas._KM_ROWS))
    monkeypatch.setattr(flat, "_ADJACENCIES", weakref.WeakKeyDictionary())


@pytest.mark.parametrize("capture", [False, True], ids=["plain", "captured"])
@pytest.mark.parametrize("source", ["small", "random-worlds"])
def test_compute_closure_is_fingerprinted(fresh_small, cold_memos, source,
                                          capture):
    if source == "small":
        inputs = [(fresh_small.topology, a)
                  for a in fresh_small.registry.announcements()]
    else:
        inputs = [random_world(seed) for seed in range(300)]

    def run() -> None:
        if capture:
            with provenance.capturing():
                _compute_all(inputs)
        else:
            _compute_all(inputs)

    ran = repro_modules(modules_that_ran(profiled(run)))
    assert {"repro.routing.engine", "repro.topology.flat",
            "repro.geo.atlas", "repro.geo.coords"} <= ran
    unkeyed = sorted(
        name for name in ran
        if name not in FINGERPRINT_MODULES and not under(name, RESULT_NEUTRAL)
    )
    assert unkeyed == [], (
        f"{unkeyed} ran inside compute_uncached but are not in "
        "repro.par.cache.FINGERPRINT_MODULES: editing them would not "
        "rotate the persistent cache key"
    )


def test_compute_modules_load_no_geolocation():
    """Geolocation answers cannot change a routing table: the compute,
    its flat adjacency and its worker task import no ``repro.geoloc``
    module, so none is fingerprinted."""
    code = textwrap.dedent("""
        import sys
        import repro.par.routing, repro.routing.engine
        import repro.topology.flat, repro.topology.graph
        print(sorted(m for m in sys.modules if m.startswith("repro.geoloc")))
    """)
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
    assert not any(name.startswith("repro.geoloc")
                   for name in FINGERPRINT_MODULES)


# ----------------------------------------------------------------------
# Worker task
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def worker_passes(fresh_small):
    """Two profiled passes of ``_compute_task`` in a freshly set-up worker.

    A pass computes SMALL's 27 announcements twice, with ``record``
    False and True.  The result holds the profile entries of both
    passes, the ``repro`` modules that ran, their globals after each
    pass, and the environment and numpy's global RNG state around both.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(par_routing, "_WORKER_ENGINE", None)
        par_routing._init_routing_worker(fresh_small.topology)
        tasks = [(a, record) for a in fresh_small.registry.announcements()
                 for record in (False, True)]

        def one_pass() -> None:
            for task in tasks:
                par_routing._compute_task(task)

        environ = dict(os.environ)
        rng_state = numpy.random.get_state(legacy=False)
        first = profiled(one_pass)
        ran = repro_modules(modules_that_ran(first))
        after_one = snapshot(ran)
        second = profiled(one_pass)
        ran |= repro_modules(modules_that_ran(second))
        after_two = snapshot(ran)
        return {
            "entries": first + second,
            "ran": ran,
            "after_one": after_one,
            "after_two": after_two,
            "environ": (environ, dict(os.environ)),
            "rng": (rng_state, numpy.random.get_state(legacy=False)),
        }


def test_worker_task_is_deterministic(worker_passes):
    assert "repro.routing.engine" in worker_passes["ran"]
    assert sorted(forbidden_calls(worker_passes["entries"])) == []
    before, after = worker_passes["environ"]
    assert after == before
    before, after = worker_passes["rng"]
    assert after["state"]["pos"] == before["state"]["pos"]
    assert (after["state"]["key"] == before["state"]["key"]).all()


def test_worker_modules_reach_a_fixed_point(worker_passes):
    moved = state_moves(worker_passes["after_one"],
                        worker_passes["after_two"])
    assert moved == [], (
        "a second pass of _compute_task changed module state, so a "
        "forked worker's results could depend on what ran before it"
    )


def test_worker_modules_hold_no_fork_hazards(worker_passes):
    hazards = sorted(
        f"{module}.{name}: {type(value).__name__}"
        for module, namespace in worker_passes["after_two"].items()
        for name, (value, _) in namespace.items()
        if isinstance(value, FORK_HAZARDS)
    )
    assert hazards == []


# ----------------------------------------------------------------------
# The detectors themselves
# ----------------------------------------------------------------------

def _write_environ() -> None:
    os.environ["REPRO_CLOSURE_PROBE"] = "1"
    del os.environ["REPRO_CLOSURE_PROBE"]


#: One planted call per hazard the worker-task check must report.
PROBES: dict[str, Callable[[], object]] = {
    "time": time.time,
    "time_ns": time.time_ns,
    "localtime": time.localtime,
    "gmtime": time.gmtime,
    "ctime": time.ctime,
    "now": datetime.datetime.now,
    "utcnow": datetime.datetime.utcnow,
    "today": datetime.date.today,
    "random": random.random,
    "choice": lambda: random.choice([1, 2]),
    "secrets": lambda: secrets.token_hex(2),
    "uuid4": uuid.uuid4,
    "urandom": lambda: os.urandom(2),
    "default_rng": numpy.random.default_rng,
    "environ": _write_environ,
}


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # utcnow
@pytest.mark.parametrize("probe", sorted(PROBES))
def test_forbidden_call_is_seen(probe):
    assert forbidden_calls(profiled(PROBES[probe]))


def test_clean_call_is_not_flagged():
    assert forbidden_calls(profiled(lambda: time.perf_counter())) == set()


#: Planted worker modules whose ``work`` moves module state on every call.
STATE_PROBES = {
    "global-rebind": """\
        _COUNT = 0

        def work(task):
            global _COUNT
            _COUNT += 1
            return task
        """,
    "container-growth": """\
        _SEEN = []

        def work(task):
            _SEEN.append(task)
            return task
        """,
}


def _second_pass_moves(monkeypatch, source: str) -> list[str]:
    """``state_moves`` of a planted module across a second pass of
    ``work`` over the same tasks."""
    module = types.ModuleType("closure_probe")
    exec(textwrap.dedent(source), vars(module))
    monkeypatch.setitem(sys.modules, module.__name__, module)

    def one_pass() -> None:
        for task in range(3):
            module.work(task)

    one_pass()
    after_one = snapshot({module.__name__})
    one_pass()
    return state_moves(after_one, snapshot({module.__name__}))


@pytest.mark.parametrize("probe", sorted(STATE_PROBES))
def test_state_change_is_seen(monkeypatch, probe):
    assert _second_pass_moves(monkeypatch, STATE_PROBES[probe])


def test_fixed_point_is_not_flagged(monkeypatch):
    # A memo filled on the first pass holds still on the second.
    assert _second_pass_moves(monkeypatch, """\
        _MEMO = {}

        def work(task):
            if task not in _MEMO:
                _MEMO[task] = task * 2
            return _MEMO[task]
        """) == []


def test_closure_sees_local_imports_and_properties():
    def call() -> object:
        from repro.geo.atlas import load_default_atlas

        return load_default_atlas().get("FRA").continent

    ran = modules_that_ran(profiled(call))
    assert {"repro.geo.atlas", "repro.geo.countries"} <= ran
