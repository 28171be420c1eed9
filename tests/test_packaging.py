"""Packaging-level checks: entry points, exports, module executability."""

from __future__ import annotations

import subprocess
import sys

import pytest

import repro
from repro import errors


class TestModuleExecution:
    def test_python_dash_m(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0
        assert "1.0.0" in completed.stdout

    def test_console_script_help(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "info"],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0
        assert "case studies" in completed.stdout


class TestErrorHierarchy:
    def test_all_derive_from_base(self):
        for name in errors.__all__:
            exc = getattr(errors, name)
            assert issubclass(exc, errors.ReproError)

    def test_subpackage_errors_catchable(self):
        from repro.mpisim import DeadlockError

        assert issubclass(DeadlockError, errors.ReproError)


class TestSubpackageSurfaces:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.trace",
            "repro.machine",
            "repro.apps",
            "repro.mpisim",
            "repro.clustering",
            "repro.alignment",
            "repro.tracking",
            "repro.predict",
            "repro.viz",
            "repro.analysis",
        ],
    )
    def test_all_exports_resolve(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"
        for name in module.__all__:
            assert getattr(module, name) is not None, f"{module_name}.{name}"


class TestRuntimeDependencies:
    """networkx is a test-only dependency: the runtime never loads it."""

    def test_cli_import_loads_no_networkx(self):
        completed = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.cli; "
                "print(sorted(m for m in sys.modules "
                "if m == 'networkx' or m.startswith('networkx.')))",
            ],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "[]"

    def test_no_source_file_imports_networkx(self):
        import re
        from pathlib import Path

        pattern = re.compile(r"^\s*(import|from)\s+networkx\b", re.MULTILINE)
        src = Path(repro.__file__).parent
        offenders = [
            str(path.relative_to(src))
            for path in sorted(src.rglob("*.py"))
            if pattern.search(path.read_text(encoding="utf-8"))
        ]
        assert offenders == []
