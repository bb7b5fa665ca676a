"""Source layout rules, read from the package source with ast.

`stats` is a leaf: it holds the tests and path functionals and imports no
sampler.  No module except the package's `__init__` (which re-exports)
imports a name it does not use.  `verify` builds `RngState` in one
function and names its streams, never numbering them by offsets.
Every path difference goes through one window-only routine,
`paths.subtract_on_windows`, called by `reflected_excursion`,
`truncated_coupling` and `corrected_excursion`; no module defines or calls
a whole-grid `combine`.  Every reduced tree is built by one private
builder, `icrt._reduced_tree`, called by exactly `sample_function_tree` and
`_spanning_reduction`; no module defines a `_root_distance` walk of its own.
Every realisation of the particles is relocated once: `ptree.relocate` is
called only by `sample_positions`, the excursion and both tree readings
each take the one `Relocation`, and `ptree` calls neither `np.mod` nor
`np.unique`.  One routine relocates, `ptree._relocated_rows`, for one row
and for many: `relocate` calls it and sorts or rotates nothing itself, the
only other `argsort` in `ptree` is `corrected_excursion`'s, nothing calls
`np.partition`, and heights have one rule, with no `DOUBLING_MIN_N` switch.
The tree-law check reads its trees as batched rows: `verify._tree_law_reports`
calls none of `sample_positions`, `breadth_tree` and `depth_tree`, and it is
the one caller of the batched builder, `ptree._parent_rows`.
The drawn vertices of the spanning side and of the repeat-time heights are
read from their ancestor chains: `verify._spanning_summaries`,
`suite_repeat_time` and `_drawn_heights` name no `breadth_tree` and read no
`.heights`, and `icrt` does not name `breadth_tree`.
`verify` summarises every reduced tree in one function, `_summary`, and
compares two reduced-tree laws in one function, `_reduced_law_reports`,
which alone holds the one-leaf rule.
Every public module-level function and class, and
every public method and property of a package class, has a caller in the
package or the benchmark, not only in the tests.  Callers are matched by
bare name, so a method that shares its name with a called method (as a
`validate` would with `RootedTree.validate`) escapes the rule.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "icrt_lab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _package_imports(tree: ast.Module) -> set[str]:
    """Names of the sibling modules a module imports from."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                out.update(a.name for a in node.names)
            else:
                out.add(node.module.split(".")[0])
    return out


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


def test_stats_imports_only_paths_and_errors():
    assert _package_imports(_tree(PACKAGE / "stats.py")) <= {"paths", "errors"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(_tree(path)) == []


RNG_CALLS = ("RngState", "child", "_stream")


def _owned_nodes(tree: ast.Module):
    """(enclosing function, node) for every node below a function or the
    module; the function is None at module level."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"))
                continue
            out.append((owner, child))
            visit(child, owner)

    visit(tree, None)
    return out


def _calls(tree: ast.Module, names):
    """(enclosing function, callee name, call) for every call of a name or
    attribute in `names`; the function is None at module level."""
    out = []
    for owner, node in _owned_nodes(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in names:
                out.append((owner, name, node))
    return out


def test_verify_builds_rngstate_in_one_function():
    owners = {owner for owner, name, _ in _calls(_tree(PACKAGE / "verify.py"), RNG_CALLS)
              if name == "RngState"}
    assert len(owners) == 1 and None not in owners, owners


def test_verify_streams_have_no_integer_offsets():
    # streams are named, never numbered: no `500_000 + k`, `(k << 6) + a`, `77`
    bad = []
    for owner, name, call in _calls(_tree(PACKAGE / "verify.py"), RNG_CALLS):
        args = list(call.args) + [kw.value for kw in call.keywords]
        for node in (n for a in args for n in ast.walk(a)):
            if isinstance(node, ast.BinOp) or (isinstance(node, ast.Constant)
                                               and type(node.value) is int):
                bad.append(f"{name}(...) in {owner}, line {call.lineno}")
    assert bad == []


def test_reflect_subtracts_components_in_one_place():
    # no pointwise combination on the whole union grid anywhere: every path
    # difference goes through the one window-only routine
    trees = {path.stem: _tree(path) for path in MODULES}
    defined = [f"{mod}.{node.name}" for mod, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "combine"]
    assert defined == []
    assert [mod for mod, tree in trees.items() if _calls(tree, ("combine",))] == []
    owners = {(mod, owner) for mod, tree in trees.items()
              for owner, _, _ in _calls(tree, ("subtract_on_windows",))}
    assert owners == {("reflect", "reflected_excursion"), ("reflect", "truncated_coupling"),
                      ("ptree", "corrected_excursion")}


def test_reduced_trees_built_in_one_place():
    # one depth-first rule (leaf depths, branch depths between consecutive
    # leaves) builds both the function-sampled and the spanning reductions
    trees = {path.stem: _tree(path) for path in MODULES}
    owners = {(mod, owner) for mod, tree in trees.items()
              for owner, _, _ in _calls(tree, ("_reduced_tree",))}
    assert owners == {("icrt", "sample_function_tree"), ("icrt", "_spanning_reduction")}
    defined = [f"{mod}.{node.name}" for mod, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "_root_distance"]
    assert defined == []


def test_one_relocation_per_realisation():
    # the excursion and both readings are views of one relocated walk, so
    # nothing but the sampler relocates, and no second duplicate check or
    # circle mod hides in ptree
    trees = {path.stem: _tree(path) for path in MODULES}
    owners = {(mod, owner) for mod, tree in trees.items()
              for owner, _, _ in _calls(tree, ("relocate",))}
    assert owners == {("ptree", "sample_positions")}
    arity = {node.name: len(node.args.posonlyargs + node.args.args + node.args.kwonlyargs)
             + (node.args.vararg is not None) + (node.args.kwarg is not None)
             for node in trees["ptree"].body if isinstance(node, ast.FunctionDef)
             and node.name in ("particle_excursion", "breadth_tree", "depth_tree")}
    assert arity == {"particle_excursion": 1, "breadth_tree": 1, "depth_tree": 1}
    assert [owner for owner, _, _ in _calls(trees["ptree"], ("mod", "unique"))] == []


def test_one_relocation_routine():
    # relocate is the one-row case of the row routine, so the rotation
    # argument and the second-lowest left limit are written once
    tree = _tree(PACKAGE / "ptree.py")
    assert {owner for owner, _, _ in _calls(tree, ("argsort",))} == {
        "_relocated_rows", "corrected_excursion"}
    assert _calls(tree, ("partition",)) == []
    assert "DOUBLING_MIN_N" not in _referenced_names(tree)
    relocate = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "relocate")
    own = {name for _, name, _ in _calls(relocate, ("_relocated_rows", "argsort", "sort",
                                                    "concatenate", "take", "take_along_axis",
                                                    "roll"))}
    assert own == {"_relocated_rows"}


def test_reduced_laws_compared_in_one_place():
    # the function, line-breaking and spanning sides share one summary, and
    # theorem1 and theorem2 share one comparison with the one-leaf rule;
    # suites hand `_run_checks` builds that return their reports
    tree = _tree(PACKAGE / "verify.py")
    summarisers = {owner for owner, _, _ in _calls(tree, ("total_length", "leaf_depths"))}
    assert summarisers == {"_summary"}
    holders = {owner for owner, node in _owned_nodes(tree)
               if isinstance(node, ast.Constant) and node.value == "leaf-depth"}
    assert holders == {"_reduced_law_reports"}
    owners = {owner for owner, _, _ in _calls(tree, ("_reduced_law_reports",))}
    assert owners == {"theta_reports", "spanning_reports"}
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_as_built" not in defined | _referenced_names(tree)


def test_tree_law_reads_batched_rows():
    # the law check builds its thousands of small trees as rows of one
    # draw matrix, never one tree per call
    trees = {path.stem: _tree(path) for path in MODULES}
    single = ("sample_positions", "breadth_tree", "depth_tree")
    assert [name for owner, name, _ in _calls(trees["verify"], single)
            if owner == "_tree_law_reports"] == []
    owners = [(mod, owner) for mod, tree in trees.items()
              for owner, _, _ in _calls(tree, ("_parent_rows",))]
    assert owners == [("verify", "_tree_law_reports")]


def test_drawn_vertices_read_their_chains():
    # a few drawn vertices need only their ancestor chains, never a whole tree
    trees = {path.stem: _tree(path) for path in MODULES}
    functions = {node.name: node for node in trees["verify"].body
                 if isinstance(node, ast.FunctionDef)}
    for name in ("_spanning_summaries", "suite_repeat_time", "_drawn_heights"):
        node = functions[name]
        attributes = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        assert "breadth_tree" not in _referenced_names(node) and "heights" not in attributes, name
    assert "_drawn_heights" in _referenced_names(functions["suite_repeat_time"])
    assert "breadth_tree" not in _referenced_names(trees["icrt"])


# Public names (`name` or `Class.method`) allowed to have no caller outside
# the tests: name -> reason.
UNCALLED_ALLOWED: dict[str, str] = {}


def _referenced_names(node: ast.AST) -> set[str]:
    """Names a node uses in code: loads and stores of a name, attribute
    names, and imported names.  Docstrings and comments do not count."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.split(".")[-1])
    return out


def test_every_public_name_has_a_caller():
    # a name the package and the benchmark never use is test-only surface;
    # a method or property may also be used by another member of its class.
    # Names are matched bare: a method named like a called method passes.
    statements = [(path, stmt, _referenced_names(stmt))
                  for path in MODULES + sorted((ROOT / "bench").glob("*.py"))
                  for stmt in _tree(path).body]
    uncalled = []
    for path, stmt, _ in statements:
        if path.parent != PACKAGE or not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        outside = [names for _, other, names in statements if other is not stmt]
        members = stmt.body if isinstance(stmt, ast.ClassDef) else []
        candidates = [(stmt.name, stmt.name, outside)] + [
            (f"{stmt.name}.{fn.name}", fn.name,
             outside + [_referenced_names(m) for m in members if m is not fn])
            for fn in members if isinstance(fn, ast.FunctionDef)]
        uncalled += [f"{path.stem}.{label}" for label, name, users in candidates
                     if not name.startswith("_") and label not in UNCALLED_ALLOWED
                     and not any(name in names for names in users)]
    assert not uncalled, "no caller outside the tests: " + ", ".join(uncalled)
