"""Import layering of the package, read from the source with ``ast``.

The data generators sit below the estimators: ``datagen`` may not import
the posterior, the forecasters, the batch estimators, the bounds engine or
the CLI.  The CLI is the top layer: only the ``python -m seqsew`` entry
point, ``__main__``, imports it.  No module imports scipy at module level:
only the quadrature oracles need it, and they import it when called.  The
CLI imports ``multiprocessing`` only in the helper that plays replays on
worker processes, the posterior imports its thread pool only in the
Metropolis kernel, and the usable cores are read in one place.  A
``FrozenCloud`` is built only by ``PosteriorCloud.snapshot`` and
``FrozenCloud.from_json``, so a live cloud has one way to be frozen, and
a snapshot's weights come from the live cloud's one weight formula.  A
round's losses are added to the cumulative ones at one site, which the
live cloud and the replay of a batch fit's snapshots share.  A
``RoundRecord`` is built only inside ``ProtocolResult``, from its columns,
so per-round rows are never a second store of a run, and only
``run_protocol`` calls a forecaster's ``observe``, so a batch fit's pass
is a played run too.  A forecaster's ``state_row`` returns a fixed
tuple and ``run_protocol`` builds no dict, so a round's state has no
second, string-keyed form.  No forecaster
method builds a forecaster: the automatic forecaster restarts the adaptive
scheme in place.  The forecasters name no backend: only the posterior
decides which backends draw from the generator a forecaster hands it.  The regret bounds evaluate the sparsity term at two
sites, the shape the fixed-tau bounds share and the automatic forecaster's
cap.  The CLI leaves the corollaries' tunings and the fixed forecaster's
eta limit to the bounds engine, builds its forecasters at one call site
and evaluates the risk bounds at one.  It reads every file through one
reader and writes every file through one writer.  The scenario's i.i.d. input law
(its sampler, feature norms and feature bound) is decided in
``datagen._design_law`` alone.  The Metropolis step updates its accepted
rows by index, never through a mask.  Every dot product over a cloud's
particles is taken at one site, and the kernel's and the batch average's
products are cut into single-thread pieces by one rule.  One function
checks every feature row, so the forecasters, the live and the frozen
cloud and the batch evaluation points refuse the same rows in the same
words."""

import ast
import re
from pathlib import Path
from typing import Iterator

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "seqsew"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _imported_modules(name: str) -> set[str]:
    """Sibling modules of the package that ``name`` imports."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "seqsew" and len(parts) > 1:
                    found.add(parts[1])
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "seqsew":
                continue
            inside = parts[1:] if node.level == 0 else [p for p in parts if p]
            if inside:
                found.add(inside[0])
            else:  # from . import a, b
                found.update(alias.name for alias in node.names)
    return found & set(MODULES)


def test_scan_sees_the_package():
    assert {"datagen", "cli", "posterior", "batch"} <= set(MODULES)
    assert "posterior" in _imported_modules("forecasters")
    assert {"batch", "bounds", "_svg"} <= _imported_modules("cli")


def test_datagen_imports_no_estimator_layer():
    assert _imported_modules("datagen") & {"posterior", "forecasters", "batch", "bounds", "cli"} == set()


@pytest.mark.parametrize("name", [m for m in MODULES if m not in ("cli", "__main__")])
def test_no_module_imports_cli(name):
    assert "cli" not in _imported_modules(name)



def _scoped_nodes(
    node: ast.AST, owner: str | None = None, function: str | None = None
) -> Iterator[tuple[ast.AST, str | None, str | None]]:
    """``node`` and every node under it, in source order, with the
    innermost class and function around each (None at module level)."""
    yield node, owner, function
    if isinstance(node, ast.ClassDef):
        owner = node.name
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    for child in ast.iter_child_nodes(node):
        yield from _scoped_nodes(child, owner, function)


def _imports_by_function(source: str) -> dict[str | None, set[str]]:
    """Top-level names of the packages ``source`` imports, keyed by the
    function whose body imports them; None holds those imported when
    ``source`` is imported itself."""
    found: dict[str | None, set[str]] = {}
    for node, _, function in _scoped_nodes(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.setdefault(function, set()).update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.setdefault(function, set()).add((node.module or "").split(".")[0])
    return found


def test_module_level_scan_skips_function_bodies_only():
    source = (
        "import numpy.linalg as la\n"
        "try:\n    from scipy import stats\nexcept ImportError:\n    pass\n"
        "class C:\n    import math\n    def f(self):\n        import json\n"
        "def g():\n    from scipy import integrate\n    from . import sibling\n"
    )
    assert _imports_by_function(source) == {None: {"numpy", "scipy", "math"}, "f": {"json"}, "g": {"scipy"}}


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_scipy_at_module_level(name):
    assert "scipy" not in _imports_by_function((PACKAGE / f"{name}.py").read_text()).get(None, set())


def test_cli_imports_process_pools_only_in_the_replay_helper():
    # Importing multiprocessing costs every command that plays no replay.
    found = _imports_by_function((PACKAGE / "cli.py").read_text())
    assert {function for function, names in found.items() if names & {"multiprocessing", "concurrent"}} == {"_replay_losses"}


def test_posterior_imports_the_thread_pool_only_in_the_kernel():
    # Importing concurrent.futures costs every process whose moves all run
    # on one worker, the replay workers among them.
    found = _imports_by_function((PACKAGE / "posterior.py").read_text())
    assert {function for function, names in found.items() if "concurrent" in names} == {"_metropolis_coordinate_steps"}


def test_usable_cores_have_one_definition():
    """The kernel's threads and the CLI's replay workers size themselves
    from one reading of the CPU affinity."""
    found = set()
    for name in MODULES:
        for node, _, function in _scoped_nodes(ast.parse((PACKAGE / f"{name}.py").read_text())):
            # An attribute, a name, an imported alias or a string.
            spellings = (getattr(node, key, None) for key in ("attr", "id", "name", "value"))
            if "sched_getaffinity" in spellings:
                found.add((name, function))
    assert found == {("posterior", "_usable_cores")}


def _weight_formula_sites(source: str) -> set[str | None]:
    """The functions of ``source`` (None at module level) that both form a
    product of an eta and cumulative losses and subtract from a log base,
    as operators or as numpy calls."""
    products, subtractions = set(), set()
    for node, _, function in _scoped_nodes(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Sub)):
            kind, operands = type(node.op).__name__, [node.left, node.right]
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("multiply", "subtract"):
            kind, operands = {"multiply": "Mult", "subtract": "Sub"}[node.func.attr], node.args[:2]
        else:
            continue
        texts = [ast.unparse(operand) for operand in operands]
        if kind == "Mult" and any("eta" in text for text in texts) and any("cum_loss" in text for text in texts):
            products.add(function)
        elif kind == "Sub" and texts and "log_base" in texts[0]:
            subtractions.add(function)
    return products & subtractions


def test_weight_formula_scan_sees_operators_and_calls():
    source = (
        "def inline(c):\n    return c._log_base - c.eta * c.cum_loss\n"
        "def calls(c):\n    return np.subtract(c._log_base, np.multiply(c._base_eta, c.cum_loss))\n"
        "def rebase(c):\n    c._log_base = c.eta * c.cum_loss\n"
        "def other(c):\n    return c._log_base - c.offset\n"
        "top = log_base - eta * cum_loss\n"
    )
    assert _weight_formula_sites(source) == {"inline", "calls", None}


def test_weight_formula_has_one_definition():
    """A cloud's log weights are its log base less eta times its cumulative
    losses.  The live cloud and its snapshots both call
    ``posterior._log_weights``, so the formula is written once."""
    found = {(name, function) for name in MODULES for function in _weight_formula_sites((PACKAGE / f"{name}.py").read_text())}
    assert found == {("posterior", "_log_weights")}


def _loss_step_sites(source: str) -> set[str | None]:
    """The functions of ``source`` (None at module level) that both square
    something and add to cumulative losses, as operators or as numpy
    calls: a round's loss step."""
    squares, additions = set(), set()
    for node, _, function in _scoped_nodes(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "square":
            squares.add(function)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and ast.unparse(node.right) == "2":
            squares.add(function)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            operands = [node.left, node.right]
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            operands = [node.target]
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add":
            operands = node.args[:2]
        else:
            continue
        if any("cum_loss" in ast.unparse(operand) for operand in operands):
            additions.add(function)
    return squares & additions


def test_loss_step_scan_sees_operators_and_calls():
    source = (
        "def inline(c, m, y):\n    c.cum_loss = c.cum_loss + (y - m) ** 2\n"
        "def augmented(c, m, y):\n    c.cum_loss += np.square(y - m)\n"
        "def calls(cum_loss, m, y):\n    np.square(np.subtract(y, m, out=m), out=m)\n    return np.add(cum_loss, m, out=m)\n"
        "def other(c, m):\n    return c.cum_loss + m\n"
        "top = cum_loss + (y - m) ** 2\n"
    )
    assert _loss_step_sites(source) == {"inline", "augmented", "calls", None}


def test_round_loss_step_has_one_definition():
    """A round adds its clipped squared losses to the cumulative ones in
    ``posterior._add_round_losses`` alone, and both the live cloud's update
    and the replay of a batch fit's snapshots call it, so a replayed
    snapshot cannot drift from the cloud that played the round."""
    found = {(name, function) for name in MODULES for function in _loss_step_sites((PACKAGE / f"{name}.py").read_text())}
    assert found == {("posterior", "_add_round_losses")}
    callers = set()
    for name in MODULES:
        for node, owner, function in _scoped_nodes(ast.parse((PACKAGE / f"{name}.py").read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_add_round_losses":
                callers.add((name, owner, function))
    assert callers == {("posterior", "PosteriorCloud", "update"), ("posterior", None, "_replay_snapshots")}


def _constructions(source: str, cls_name: str) -> list[tuple[str | None, str | None]]:
    """The (class, function) around each call in ``source`` that builds a
    ``cls_name``: a call of the class under any name it is imported as,
    or of ``cls`` in the class's own methods (None at module level)."""
    tree = ast.parse(source)
    names = {cls_name} | {
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name == cls_name and alias.asname
    }
    found = []
    for node, owner, function in _scoped_nodes(tree):
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            if name in names or (name == "cls" and owner == cls_name):
                found.append((owner, function))
    return found


def test_construction_scan_sees_aliases_and_cls():
    source = (
        "from .posterior import FrozenCloud as Frozen\n"
        "import seqsew.posterior as p\n"
        "class FrozenCloud:\n    @classmethod\n    def load(cls):\n        return cls()\n"
        "def a():\n    return Frozen()\n"
        "def b():\n    return [p.FrozenCloud() for _ in range(2)]\n"
        "def c(cls):\n    return cls()\n"
        "top = FrozenCloud()\n"
    )
    assert _constructions(source, "FrozenCloud") == [("FrozenCloud", "load"), (None, "a"), (None, "b"), (None, None)]


@pytest.mark.parametrize("name", MODULES)
def test_only_snapshot_and_from_json_build_frozen_clouds(name):
    found = _constructions((PACKAGE / f"{name}.py").read_text(), "FrozenCloud")
    assert sorted(function for _, function in found) == (["from_json", "snapshot"] if name == "posterior" else [])


@pytest.mark.parametrize("name", MODULES)
def test_only_protocol_result_builds_round_records(name):
    found = _constructions((PACKAGE / f"{name}.py").read_text(), "RoundRecord")
    assert [owner for owner, _ in found] == (["ProtocolResult"] if name == "forecasters" else [])



def test_cache_block_rows_have_one_definition():
    """The Metropolis kernel's blocks and the batch estimators' blocks of
    margins are sized by one rule: the rows of a scratch block of
    ``_BLOCK_BYTES``, at the caller's cell size.  The constant is read, and
    rows are cut from bytes (a floor division by a cell size, 8, 4 or
    ``itemsize``, times the width), only in ``posterior._block_rows``."""
    found = set()
    for name in MODULES:
        for node, _, function in _scoped_nodes(ast.parse((PACKAGE / f"{name}.py").read_text())):
            spellings = (getattr(node, key, None) for key in ("attr", "id", "name"))
            if any(isinstance(s, str) and s.endswith("BLOCK_BYTES") for s in spellings):
                found.add((name, function))
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv):
                right = node.right
                if isinstance(right, ast.BinOp) and isinstance(right.op, ast.Mult):
                    sides = (right.left, right.right)
                    if any(
                        (isinstance(side, ast.Constant) and side.value in (4, 8))
                        or (isinstance(side, ast.Name) and side.id == "itemsize")
                        for side in sides
                    ):
                        found.add((name, function))
    # The definition at module level, and the one reading of it.
    assert found == {("posterior", None), ("posterior", "_block_rows")}


def test_particle_sums_run_at_one_site():
    """Every dot product over a cloud's particles (the live and the frozen
    cloud's means, the ESS, and the batch average's weighting of its
    clipped margins) is taken by ``posterior._particle_sum``, which cuts a
    long one into pieces that OpenBLAS runs on the calling thread.  No
    other function calls a dot product, and the only other products over
    particles are the margin products and the kernel's pieces."""
    dots, products, callers = set(), set(), set()
    for name in MODULES:
        for node, _, function in _scoped_nodes(ast.parse((PACKAGE / f"{name}.py").read_text())):
            called = getattr(node.func, "attr", getattr(node.func, "id", None)) if isinstance(node, ast.Call) else None
            if called in ("dot", "vdot", "vecdot", "inner", "matvec", "vecmat"):
                dots.add((name, function))
            elif called == "_particle_sum":
                callers.add((name, function))
            elif called == "matmul" or (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)):
                products.add((name, function))
    assert dots == {("posterior", "_particle_sum")}
    assert callers == {("posterior", "_clipped_mean"), ("posterior", "_ess_from_weights"), ("batch", "_deltas")}
    assert {function for name, function in products if name in ("posterior", "batch")} == {
        "_clipped_margins",
        "_block_residuals",
        "_deltas",
    }


def test_products_are_cut_by_one_rule():
    """The Metropolis kernel's residual products and the batch average's
    margin products are cut into pieces that OpenBLAS runs on the calling
    thread by one rule, ``posterior._piece_rows``: the constant is read
    only there, and both products ask it for their rows."""
    readers, callers = set(), set()
    for name in MODULES:
        for node, owner, function in _scoped_nodes(ast.parse((PACKAGE / f"{name}.py").read_text())):
            if isinstance(node, ast.Name) and node.id == "_KERNEL_PIECE_MULADDS":
                readers.add((name, function))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_piece_rows":
                callers.add((name, owner, function))
    # The definition at module level, and the one reading of it.
    assert readers == {("posterior", None), ("posterior", "_piece_rows")}
    assert callers == {("posterior", None, "_block_residuals"), ("batch", "BatchEstimator", "_deltas")}


def test_batch_estimators_form_margins_at_one_product_site():
    """Every batch estimator's average forms its blocks of margins, rows of
    features against a sample set, at one ``np.matmul`` or ``@``; a second
    product of that kind would be a second averaging path."""
    tree = ast.parse((PACKAGE / "batch.py").read_text())
    found = []
    for node, owner, function in _scoped_nodes(tree):
        if owner != "BatchEstimator":
            continue
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "matmul":
            operands = node.args[:2]
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            operands = [node.left, node.right]
        else:
            continue
        if any("samples" in ast.unparse(operand) for operand in operands):
            found.append((function, ast.unparse(node)))
    assert len(found) == 1, found


def _forecaster_names(tree: ast.Module) -> set[str]:
    """The forecaster classes of ``forecasters.py`` and the functional
    names bound to them at module level."""
    classes = {
        node.name for node in tree.body if isinstance(node, ast.ClassDef) and node.name.startswith(("SeqSEW", "Ridge"))
    }
    aliases = {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name) and node.value.id in classes
        for target in node.targets
    }
    return classes | aliases


def test_no_forecaster_method_builds_a_forecaster():
    """A forecaster that drove a second, freshly built forecaster would
    pass every round through two protocol guards."""
    source = (PACKAGE / "forecasters.py").read_text()
    names = _forecaster_names(ast.parse(source))
    assert {"SeqSEWAdaptive", "SeqSEWAuto", "seqsew_adaptive", "ridge_baseline"} <= names
    found = [(name, owner, function) for name in sorted(names) for owner, function in _constructions(source, name)]
    assert [entry for entry in found if entry[2] is not None] == []


def test_run_protocol_is_the_one_protocol_loop():
    """Only ``run_protocol`` shows a forecaster an outcome, so every played
    run, a batch fit's pass included, is one ``ProtocolResult`` and no
    second loop keeps its own log of the rounds."""
    callers = set()
    for name in MODULES:
        for node, owner, function in _scoped_nodes(ast.parse((PACKAGE / f"{name}.py").read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "observe":
                callers.add((name, owner, function))
    assert callers == {("forecasters", None, "run_protocol")}


def _dict_builds(node: ast.AST) -> list[str]:
    """The dict displays, dict comprehensions and ``dict(...)`` calls
    under ``node``, as source text."""
    return [
        ast.unparse(child)
        for child in ast.walk(node)
        if isinstance(child, (ast.Dict, ast.DictComp))
        or (isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "dict")
    ]


def test_dict_scan_sees_displays_comprehensions_and_calls():
    tree = ast.parse("def f(k):\n    a = {'B': 1}\n    b = {x: 0 for x in k}\n    return dict(a, **b), {**a}, (1, 2)\n")
    assert _dict_builds(tree) == ["{'B': 1}", "{x: 0 for x in k}", "dict(a, **b)", "{**a}"]


def test_run_protocol_builds_no_dict():
    """``run_protocol`` writes each round's state straight into its five
    columns: no dict keyed by column name stands between the forecaster
    and the run."""
    tree = ast.parse((PACKAGE / "forecasters.py").read_text())
    (loop,) = [node for node in tree.body if getattr(node, "name", None) == "run_protocol"]
    assert _dict_builds(loop) == []


def test_every_state_row_returns_a_fixed_tuple():
    """Each ``state_row`` in the package returns the five-tuple
    ``(B, eta, regime, ess, gamma)`` itself, never a dict of it."""
    returns = []
    for name in MODULES:
        for node, owner, function in _scoped_nodes(ast.parse((PACKAGE / f"{name}.py").read_text())):
            if function == "state_row" and isinstance(node, ast.Return):
                returns.append((owner, node.value))
    assert {owner for owner, _ in returns} == {"_ForecasterBase", "SeqSEWAdaptive", "SeqSEWAuto"}
    for owner, value in returns:
        assert _dict_builds(value) == [], owner
        assert isinstance(value, ast.Tuple) and len(value.elts) == 5, (owner, ast.unparse(value))


def test_forecasters_name_no_backend():
    """A forecaster hands every cloud its one generator; whether a backend
    draws from it is the posterior's to decide, so no name, attribute or
    string of ``forecasters.py`` names one."""
    found = []
    for node in ast.walk(ast.parse((PACKAGE / "forecasters.py").read_text())):
        spellings = [getattr(node, key, None) for key in ("id", "attr", "arg", "value")]
        if any(isinstance(s, str) and re.search(r"importance|chain|quadrature", s) for s in spellings):
            found.append(ast.unparse(node))
    assert found == []


def test_regret_bounds_evaluate_the_sparsity_term_at_two_sites():
    """The five fixed-tau bounds reach ``s_ln_term`` through one shared
    shape, and the automatic forecaster's cap has its own."""
    tree = ast.parse((PACKAGE / "bounds.py").read_text())
    found = [
        function
        for node, _, function in _scoped_nodes(tree)
        if isinstance(node, ast.Call) and "s_ln_term" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert sorted(found) == ["_sparsity_rhs", "cor9_rhs"]


def test_cli_names_no_corollary_tuning():
    """``bounds.verify`` reads cor3's and cor6's (B_y, B_Phi) off the run's
    tuning, so the CLI names neither, as a name, keyword or string."""
    found = []
    for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text())):
        spellings = [getattr(node, key, None) for key in ("id", "attr", "arg", "value")]
        if any(isinstance(s, str) and re.search(r"\bB_(y|Phi)\b", s) for s in spellings):
            found.append(ast.unparse(node))
    assert found == []


def test_cli_builds_forecasters_at_one_call_site():
    """One kind-to-constructor table builds every forecaster the CLI plays:
    a call of a forecaster's name, or of a module-level table holding one,
    appears once."""
    names = _forecaster_names(ast.parse((PACKAGE / "forecasters.py").read_text()))
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    tables = {
        target.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None
        if any(isinstance(n, ast.Name) and n.id in names for n in ast.walk(node.value))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
    }
    sites = []
    for node, _, function in _scoped_nodes(tree):
        if isinstance(node, ast.Call):
            callee = node.func
            while isinstance(callee, ast.Subscript):
                callee = callee.value
            if (callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)) in names | tables:
                sites.append(function)
    assert sites == ["_forecaster"]


def test_fixed_tuning_limit_has_one_definition():
    """Proposition 2's eta <= 1/(8 B^2), with its tolerance, is stated in
    ``bounds._within_fixed_limit``; prop2's precondition and the CLI's
    pre-run warning both call it."""
    found = set()
    for name in MODULES:
        for node, _, function in _scoped_nodes(ast.parse((PACKAGE / f"{name}.py").read_text())):
            if isinstance(node, ast.Call) and "_within_fixed_limit" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.add((name, function))
    assert found == {("bounds", "verify"), ("cli", "_first_run")}


def test_cli_evaluates_risk_bounds_at_one_call_site():
    """``batch.risk_bound_rhs`` reads only the inputs its variant needs,
    so one call serves every risk variant of ``seqsew batch``."""
    sites = [
        function
        for node, _, function in _scoped_nodes(ast.parse((PACKAGE / "cli.py").read_text()))
        if isinstance(node, ast.Call) and "risk_bound_rhs" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert sites == ["_batch_risk"]


def test_design_law_has_one_owner():
    """Only ``_design_law`` tells the i.i.d. designs apart (the spec names
    one as its default and lists every design in its own check), and the
    sampler, the closed forms and the training inputs each ask it rather
    than decide for themselves."""
    named, asks = set(), set()
    for node, owner, function in _scoped_nodes(ast.parse((PACKAGE / "datagen.py").read_text())):
        if isinstance(node, ast.Constant) and node.value in ("iid_uniform", "iid_gaussian"):
            named.add((owner, function))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_design_law":
            asks.add(function)
    assert named == {(None, "_design_law"), ("ScenarioSpec", None), ("ScenarioSpec", "__post_init__")}
    assert asks == {"design_sampler", "_closed_forms", "_dictionary_inputs"}


def test_cli_reads_and_writes_files_at_one_site_each():
    """``_read_text`` holds the CLI's only ``read_text`` call and
    ``_open_output`` its only ``open`` call, so one function decides the
    encoding and the errors of every file read and one the encoding and
    line ends of every file written."""
    found: dict[str, set[str | None]] = {}
    for node, _, function in _scoped_nodes(ast.parse((PACKAGE / "cli.py").read_text())):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in ("read_text", "write_text", "read_bytes", "write_bytes", "open"):
                found.setdefault(name, set()).add(function)
    assert found == {"read_text": {"_read_text"}, "open": {"_open_output"}}


def test_metropolis_step_updates_rows_by_index():
    """``_metropolis_coordinate_steps`` and the workers it defines pass no
    ``where=`` mask to a ufunc and call no ``np.copyto``: the accepted rows
    are written by index and the long-range moves scaled by a factor
    vector, each far cheaper than a masked sweep."""
    tree = ast.parse((PACKAGE / "posterior.py").read_text())
    (kernel,) = [node for node in tree.body if getattr(node, "name", None) == "_metropolis_coordinate_steps"]
    calls = [node for node in ast.walk(kernel) if isinstance(node, ast.Call)]
    names = {getattr(call.func, "attr", None) for call in calls}
    assert {"minimum", "maximum", "einsum", "take"} <= names  # the scan sees the step's calls
    assert "copyto" not in names
    assert [ast.unparse(call) for call in calls if any(k.arg == "where" for k in call.keywords)] == []


def _feature_refusal_sites(source: str) -> set[tuple[str | None, str | None]]:
    """The (class, function) around each string of ``source``, plain or
    formatted, that words a refusal of a feature row."""
    found = set()
    for node, owner, function in _scoped_nodes(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.search(r"features (have shape|must be finite)", node.value):
                found.add((owner, function))
    return found


def test_feature_refusal_scan_sees_plain_and_formatted_strings():
    source = (
        "def a(f):\n    raise E(f'{where}features have shape {f.shape}')\n"
        "class C:\n    def b(self):\n        raise E('round 1: features must be finite')\n"
        "def c():\n    raise E('evaluation point 0: must be finite')\n"
    )
    assert _feature_refusal_sites(source) == {(None, "a"), ("C", "b")}


def test_feature_rows_are_checked_at_one_site():
    """``posterior._checked_features`` is the package's only feature-row
    check: the forecasters, the live and the frozen cloud and the batch
    evaluation points all call it, so none of them words a refusal of its
    own, and the forecasters keep no ``np.errstate`` of a norm test."""
    found = {(name, *site) for name in MODULES for site in _feature_refusal_sites((PACKAGE / f"{name}.py").read_text())}
    assert found == {("posterior", None, "_checked_features")}
    forecasters = ast.parse((PACKAGE / "forecasters.py").read_text())
    assert [ast.unparse(node) for node in ast.walk(forecasters) if getattr(node, "attr", None) == "errstate"] == []
    callers = set()
    for name in MODULES:
        for node, owner, function in _scoped_nodes(ast.parse((PACKAGE / f"{name}.py").read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_checked_features":
                callers.add((name, owner, function))
    assert callers == {
        ("forecasters", "_ForecasterBase", "predict"),
        ("posterior", "PosteriorCloud", "predict"),
        ("posterior", "PosteriorCloud", "update"),
        ("posterior", "FrozenCloud", "predict_clipped_mean"),
        ("batch", "BatchEstimator", "_features"),
    }
