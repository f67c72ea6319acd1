"""A partition's state layout has one owner: ``stages/applier.py`` names
the partition directories (``partition_dir``) and the state files
(``write_partition_state`` and the merge-on-read delta writer).  Every
other module reaches them through those functions; reading a directory
with ``glob("state-*.parquet")`` stays allowed."""

import ast
import re
from pathlib import Path

import migration_pair_ray

PKG = Path(migration_pair_ray.__file__).parent
OWNER = "stages/applier.py"

# literal text that, once formatted or concatenated, names a partition
# directory (``part=`` + id) or a state file (``state-`` + tag, or a
# ``state-...parquet`` name); a ``*`` right after either is a glob
_BUILDS = re.compile(r"part=(?!\*)|state-(?!\*)(?=$|[{%]|\S*\.parquet)")


def _docstrings(tree: ast.AST) -> set[int]:
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def layout_builders(source: str) -> list[tuple[int, str]]:
    """(line, literal) of every string literal in ``source`` that builds
    a ``part=`` directory or a ``state-`` file name; docstrings and
    comments are prose and are not scanned."""
    tree = ast.parse(source)
    skip = _docstrings(tree)
    hits = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in skip and _BUILDS.search(node.value)):
            hits.append((node.lineno, node.value))
    return sorted(hits)


def test_guard_sees_every_spelling():
    built = ['f"part={pid:05d}"', '"part=%05d" % pid', '"part=" + str(pid)',
             'f"state-{tag}.parquet"', '"state-" + tag',
             '"state-{}-{:04d}.parquet".format(tag, s)',
             '"state-%s.parquet" % tag']
    for expr in built:
        assert layout_builders(f"x = {expr}\n"), expr
    read = ['d.glob("state-*.parquet")', 'glob("part=*/state-*")',
            '"a state-mutating recovery"']
    for expr in read:
        assert not layout_builders(f"x = {expr}\n"), expr
    assert not layout_builders('def f():\n    """in part={pid}"""\n')


def test_only_the_applier_builds_partition_dirs_and_state_names():
    hits = {p.relative_to(PKG).as_posix(): layout_builders(p.read_text())
            for p in sorted(PKG.rglob("*.py"))}
    assert hits.pop(OWNER), "the owner's own names must be visible to the scan"
    assert {m: h for m, h in hits.items() if h} == {}
