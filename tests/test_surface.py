"""The package holds no dead code and exports only its library API.

Every top-level function, class and method under src/rtcode must be used
by the program itself: named somewhere under src/rtcode outside its own
definition and outside the re-exports of __init__.py, or, for a console
script, in pyproject.toml.  The only exceptions are the reference
implementations in REFERENCE_ONLY, which tests compare production code
against; each names the test that uses it.

A method counts as used where an attribute of its name is read, unless
every such read is a call whose arguments its signature cannot take: a
call x.check(n) does not keep alive a check method that needs two
arguments.
"""
import ast
import re
from pathlib import Path

import rtcode

SRC = Path(rtcode.__file__).parent
TESTS = Path(__file__).parent
PYPROJECT = TESTS.parent / "pyproject.toml"

REFERENCE_ONLY = {
    "baselines.binary_shannon_closed_form":
        "test_baselines.py::test_shannon_limit_matches_closed_form_binary",
    "bayes.bayes_envelope":
        "test_scenarios.py::"
        "test_feedback_complete_reward_is_first_marginal_envelope",
    "bayes.belief_update_memory":
        "test_scenarios.py::"
        "test_nofeedback_transition_matches_memory_belief_oracle",
    "bayes.belief_update_encoded_memory":
        "test_vending.py::test_vending_nofeedback_reward_matches_enumeration",
    "bayes.belief_update_sideinfo_memory":
        "test_vending.py::test_vending_nofeedback_reward_matches_enumeration",
    "lookahead.TupleCodec.decode":
        "test_lookahead.py::test_codec_tables_match_scalar_ops",
    "lookahead.TupleCodec.shift":
        "test_lookahead.py::test_codec_tables_match_scalar_ops",
    "mdp.FiniteMdp.dense":
        "test_scenarios.py::"
        "test_feedback_one_step_transition_matches_enumeration",
    "mdp.FiniteMdp.from_dense": "conftest.py::random_unichain_mdp",
    "mdp.exhaustive_policy_search":
        "test_mdp.py::test_rvi_matches_exhaustive_search_on_random_instances",
    "scenarios.build_feedback_finite":
        "test_scenarios.py::test_feedback_one_step_reward_matches_enumeration",
    "scenarios.build_nofeedback_finite":
        "test_scenarios.py::"
        "test_nofeedback_one_step_reward_matches_enumeration",
    "vending.build_vending_feedback_finite":
        "test_acceptance.py::test_acceptance_7_vending_duals",
    "vending.build_vending_nofeedback_discretized":
        "test_vending.py::test_vending_nofeedback_reward_matches_enumeration",
}


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _definitions(modules):
    """(key, node) for every top-level function and class and every
    method other than dunders; key is module.qualname."""
    for mod, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{mod}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("__")):
                        yield f"{mod}.{node.name}.{sub.name}", sub


def _accepts(method: ast.FunctionDef, call: ast.Call) -> bool:
    """Whether a call through an instance or class could bind to method."""
    args = method.args
    params = args.posonlyargs + args.args
    decorators = {d.id for d in method.decorator_list
                  if isinstance(d, ast.Name)}
    if "property" in decorators:
        return False
    if "staticmethod" not in decorators:
        params = params[1:]
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return True
    names = {p.arg for p in params} | {a.arg for a in args.kwonlyargs}
    if args.kwarg is None and any(k.arg not in names for k in call.keywords):
        return False
    if args.vararg is None and len(call.args) > len(params):
        return False
    given = len(call.args) + sum(
        k.arg in {p.arg for p in params[len(call.args):]}
        for k in call.keywords)
    return given >= len(params) - len(args.defaults)


def _inside(ref, node, parents) -> bool:
    while ref in parents:
        ref = parents[ref]
        if ref is node:
            return True
    return False


def _unused(modules):
    parents = {child: node for tree in modules.values()
               for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    names, attrs = {}, {}
    for mod, tree in modules.items():
        if mod == "__init__":
            continue
        for ref in ast.walk(tree):
            if isinstance(ref, ast.Name):
                names.setdefault(ref.id, []).append(ref)
            elif isinstance(ref, ast.Attribute):
                attrs.setdefault(ref.attr, []).append(ref)
    scripts = {f"{mod}.{func}" for mod, func in re.findall(
        r'"rtcode\.(\w+):(\w+)"', PYPROJECT.read_text(encoding="utf-8"))}
    out = set()
    for key, node in _definitions(modules):
        is_method = key.count(".") == 2
        refs = attrs.get(node.name, []) + (
            [] if is_method else names.get(node.name, []))
        used = False
        for ref in refs:
            if _inside(ref, node, parents):
                continue
            call = parents.get(ref)
            if (is_method and isinstance(call, ast.Call)
                    and call.func is ref and not _accepts(node, call)):
                continue
            used = True
            break
        if not used and key not in scripts:
            out.add(key)
    return out


def test_every_definition_is_used_or_a_named_reference():
    unused = _unused(_modules())
    assert sorted(unused - set(REFERENCE_ONLY)) == []
    # an entry the program now calls is no longer reference-only
    assert sorted(set(REFERENCE_ONLY) - unused) == []


def test_reference_only_entries_name_a_test_that_uses_them():
    for key, where in REFERENCE_ONLY.items():
        path, test = where.split("::")
        tree = ast.parse((TESTS / path).read_text(encoding="utf-8"))
        funcs = [n for n in tree.body
                 if isinstance(n, ast.FunctionDef) and n.name == test]
        assert funcs, f"{where} does not exist"
        name = key.rsplit(".", 1)[1]
        seen = {n.id for n in ast.walk(funcs[0]) if isinstance(n, ast.Name)}
        seen |= {n.attr for n in ast.walk(funcs[0])
                 if isinstance(n, ast.Attribute)}
        assert name in seen, f"{where} does not use {key}"


def test_public_names_resolve_and_are_all_that_init_imports():
    assert len(rtcode.__all__) == len(set(rtcode.__all__)) <= 40
    for name in rtcode.__all__:
        assert getattr(rtcode, name, None) is not None, name
    tree = _modules()["__init__"]
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported == set(rtcode.__all__)
