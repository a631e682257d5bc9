"""Public API surface: everything advertised imports and works."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_quickstart_snippet_from_docstring(self):
        # The module docstring's snippet must actually run.
        result = repro.Campaign(
            repro.CampaignConfig(dialect="sqlite", seed=1,
                                 databases=5)).run()
        assert result.stats.databases == 5

    def test_error_hierarchy(self):
        assert issubclass(repro.DBError, Exception)
        assert issubclass(repro.DBCrash, BaseException)
        assert not issubclass(repro.DBCrash, Exception), \
            "crashes must not be swallowed by `except Exception`"
        assert issubclass(repro.PQSError, Exception)

    def test_subpackage_exports(self):
        from repro.campaigns import Campaign  # noqa: F401
        from repro.core import PQSRunner  # noqa: F401
        from repro.dialects import get_dialect  # noqa: F401
        from repro.interp import make_interpreter  # noqa: F401
        from repro.minidb import Engine  # noqa: F401
        from repro.multiplan import MultiPlanOracle  # noqa: F401
        from repro.stategen import ActionGenerator  # noqa: F401

    def test_bug_catalog_shape(self):
        for bug in repro.BUG_CATALOG.values():
            assert bug.dialect in ("sqlite", "mysql", "postgres")
            assert bug.oracle in ("contains", "error", "crash",
                                  "multiplan")
            assert bug.triage in ("fixed", "verified", "docs",
                                  "intended", "duplicate")
            assert bug.description and bug.paper_ref

    def test_engine_rejects_unknown_dialect(self):
        with pytest.raises(ValueError):
            repro.Engine("mongodb")

    def test_value_reexported(self):
        assert repro.Value.integer(1).v == 1


def fresh_interpreter(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env, text=True,
                          capture_output=True, check=True).stdout


class TestLazyExports:
    def test_worker_imports_only_what_its_adapter_needs(self):
        loaded = fresh_interpreter(
            "import sys\n"
            "import repro.adapters.subprocess_worker\n"
            "import repro.adapters.sqlite3_adapter\n"
            "print(' '.join(sys.modules))").split()
        for package in ("repro.minidb", "repro.campaigns", "repro.core"):
            assert not [m for m in loaded
                        if m == package or m.startswith(package + ".")]

    def test_every_exported_name_imports_from_a_fresh_interpreter(self):
        for package in ("repro", "repro.adapters", "repro.core",
                        "repro.guidance", "repro.multiplan"):
            fresh_interpreter(
                f"import {package} as p\n"
                f"for name in p.__all__:\n"
                f"    exec(f'from {package} import {{name}}')\n")

    def test_fingerprint_stays_the_function(self):
        # ``repro.guidance.fingerprint`` is also a submodule; importing
        # it must not shadow the re-exported function.
        import repro.guidance.fingerprint  # noqa: F401
        from repro.guidance import fingerprint

        assert callable(fingerprint)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError):
            repro.NoSuchName  # noqa: B018
        assert "Campaign" in dir(repro)
