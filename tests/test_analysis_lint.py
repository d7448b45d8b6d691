"""Platform linter: lock discipline, lock order, API lints, the CLI gate."""

import textwrap

from repro.analysis import (
    lint_lock_discipline,
    lint_lock_order,
    lint_platform,
)
from repro.analysis.cli import lint_paths, main


def _lint(source: str, path: str = "src/repro/serve/fixture.py", edges=None):
    return lint_lock_discipline(textwrap.dedent(source), path, edges)


# -- lock discipline (L001) -------------------------------------------------


GUARDED_CLASS = """
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = {}  # guarded-by: _lock

        def put(self, k, v):
            with self._lock:
                self._items[k] = v

        def size_unsafe(self):
            return len(self._items)

        def _evict_locked(self, k):
            self._items.pop(k, None)
"""


def test_guarded_access_outside_lock_is_caught():
    report = _lint(GUARDED_CLASS)
    assert [d.code for d in report] == ["L001"]
    diag = report.diagnostics[0]
    assert diag.symbol == "Store.size_unsafe._items"
    assert "with self._lock" in diag.message
    assert diag.severity == "error"


def test_with_scope_and_locked_suffix_and_init_are_clean():
    report = _lint(GUARDED_CLASS)
    flagged = {d.symbol for d in report}
    # put (with-scope), __init__ (construction), _evict_locked (suffix
    # convention) are all allowed.
    assert flagged == {"Store.size_unsafe._items"}


def test_unannotated_attributes_are_not_checked():
    report = _lint("""
        class Free:
            def __init__(self):
                self.items = {}

            def read(self):
                return self.items
    """)
    assert len(report) == 0


def test_nested_with_covers_inner_statements():
    report = _lint("""
        import threading

        class S:
            def __init__(self):
                self._lock = threading.Lock()
                self.n = 0  # guarded-by: _lock

            def bump(self):
                with self._lock:
                    if True:
                        for _ in range(3):
                            self.n += 1
    """)
    assert len(report) == 0


def test_access_after_with_block_is_flagged():
    report = _lint("""
        import threading

        class S:
            def __init__(self):
                self._lock = threading.Lock()
                self.n = 0  # guarded-by: _lock

            def bump(self):
                with self._lock:
                    self.n += 1
                return self.n
    """)
    assert [d.code for d in report] == ["L001"]
    assert report.diagnostics[0].symbol == "S.bump.n"


# -- lock order (L002) ------------------------------------------------------


def test_lock_order_inversion_is_flagged():
    edges = {}
    _lint("""
        import threading

        class A:
            def __init__(self):
                self._lock = threading.Lock()
                self._cond = threading.Condition()

            def forward(self):
                with self._lock:
                    with self._cond:
                        pass

            def backward(self):
                with self._cond:
                    with self._lock:
                        pass
    """, edges=edges)
    report = lint_lock_order(edges)
    assert [d.code for d in report] == ["L002"]
    assert "A._lock" in report.diagnostics[0].message
    assert "A._cond" in report.diagnostics[0].message


def test_consistent_lock_order_is_clean():
    edges = {}
    _lint("""
        import threading

        class A:
            def __init__(self):
                self._lock = threading.Lock()
                self._cond = threading.Condition()

            def one(self):
                with self._lock:
                    with self._cond:
                        pass

            def two(self):
                with self._lock:
                    with self._cond:
                        pass
    """, edges=edges)
    assert len(lint_lock_order(edges)) == 0


# -- platform lints (L003 / L010 / L020) ------------------------------------


def test_bare_keyerror_in_api_path_is_flagged():
    src = textwrap.dedent("""
        def handler(req):
            raise KeyError(req)
    """)
    report = lint_platform(src, "src/repro/api/resources/things.py")
    assert [d.code for d in report] == ["L003"]
    # Same source outside the API layer is fine.
    assert len(lint_platform(src, "src/repro/core/things.py")) == 0


def test_route_missing_metadata_is_flagged():
    src = textwrap.dedent("""
        def register(router):
            router.add(Route("POST", "/v1/things", handler,
                             name="createThing", tag="things"))
            router.add(Route("GET", "/v1/things", handler,
                             name="listThings", summary="List things",
                             tag="things", response={"type": "array"}))
    """)
    report = lint_platform(src, "src/repro/api/resources/things.py")
    assert [d.code for d in report] == ["L010"]
    msg = report.diagnostics[0].message
    assert "summary" in msg and "response" in msg and "request" in msg


def test_wallclock_duration_is_flagged():
    src = textwrap.dedent("""
        import time

        def cooldown_ok(last):
            return time.time() - last < 30

        def timestamp_is_fine():
            return time.time()
    """)
    report = lint_platform(src, "src/repro/monitor/fixture.py")
    assert [d.code for d in report] == ["L020"]
    assert report.diagnostics[0].symbol == "cooldown_ok"


# -- the real tree ----------------------------------------------------------


def test_src_repro_lints_clean(monkeypatch):
    import pathlib

    monkeypatch.chdir(pathlib.Path(__file__).resolve().parent.parent)
    report = lint_paths(["src/repro"])
    assert len(report) == 0, report.format()


def test_cli_check_exit_codes(tmp_path, capsys):
    bad = tmp_path / "fixture.py"
    bad.write_text(textwrap.dedent(GUARDED_CLASS))
    assert main(["--check", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "1 finding(s)" in out and "L001" in out
    assert main([str(bad)]) == 0  # reporting only: --check is the gate
    good = tmp_path / "clean.py"
    good.write_text(textwrap.dedent(GUARDED_CLASS).replace(
        "return len(self._items)", "return 0"))
    assert main(["--check", str(good)]) == 0


def test_cli_verify_zoo_smoke(capsys):
    assert main(["--verify-zoo", "--tasks", "kws"]) == 0
    assert "clean" in capsys.readouterr().out
