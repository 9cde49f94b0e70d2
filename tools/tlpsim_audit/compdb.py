"""Compilation-database access and project layout.

The compilation database (CMAKE_EXPORT_COMPILE_COMMANDS) is the ground
truth for two things the checkers need:

  * which translation units the build actually compiles (a dead file
    should neither hide a violation nor invent one),
  * the repo root, derived from the source paths, so findings render
    root-relative and fixtures can live anywhere.

Only entries whose file lives under `<root>/src/` participate; tests,
benches, and examples are compiled by the same database but are not
simulation code.
"""

import json
from dataclasses import dataclass
from pathlib import Path


@dataclass
class CompileCommand:
    file: Path          # absolute, resolved


@dataclass
class Project:
    root: Path          # directory containing src/
    commands: list      # CompileCommands under root/src

    def src_dir(self):
        return self.root / "src"

    def rel(self, path):
        """Root-relative POSIX form of @p path (for stable output)."""
        try:
            return Path(path).resolve().relative_to(self.root).as_posix()
        except ValueError:
            return Path(path).as_posix()

    def source_files(self, suffixes=(".cc", ".hh")):
        """Every src/ file with one of @p suffixes, sorted for stable
        output. Globbed rather than taken from the database so headers
        (never TUs) are covered too; TU membership checks use
        `commands`."""
        out = []
        for suffix in suffixes:
            out.extend(self.src_dir().rglob(f"*{suffix}"))
        return sorted(set(out))


def load(compdb_path, root=None):
    """Load @p compdb_path into a Project.

    @p root overrides root inference (fixtures use this); by default the
    root is the parent of the src/ directory the first entry lives in.
    """
    compdb_path = Path(compdb_path)
    try:
        entries = json.loads(compdb_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SystemExit(
            f"tlpsim-audit: no compilation database at {compdb_path} "
            f"(configure with cmake first: it exports "
            f"compile_commands.json)")
    except json.JSONDecodeError as e:
        raise SystemExit(
            f"tlpsim-audit: {compdb_path} is not valid JSON: {e}")

    commands = []
    for entry in entries:
        directory = Path(entry["directory"])
        file = Path(entry["file"])
        if not file.is_absolute():
            file = directory / file
        commands.append(CompileCommand(file=file.resolve()))

    if root is None:
        for cmd in commands:
            parts = cmd.file.parts
            if "src" in parts[:-1]:
                # Last "src" path component (not the filename): root is
                # everything before it.
                idx = len(parts) - 2 - parts[:-1][::-1].index("src")
                root = Path(*parts[:idx])
                break
        else:
            raise SystemExit(
                "tlpsim-audit: no entry under a src/ directory in "
                f"{compdb_path}; pass --root explicitly")
    root = Path(root).resolve()

    src_commands = [c for c in commands
                    if _is_under(c.file, root / "src")]
    if not src_commands:
        raise SystemExit(
            f"tlpsim-audit: no translation units under {root / 'src'} "
            f"in {compdb_path}")
    return Project(root=root, commands=src_commands)


def _is_under(path, parent):
    try:
        path.relative_to(parent)
        return True
    except ValueError:
        return False
