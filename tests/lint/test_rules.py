"""Unit tests for every simlint static rule: one true-positive and one
clean fixture per rule, plus the suppression machinery."""

import textwrap

from repro.lint import lint_text, rule_ids, Severity


def lint(source):
    # flow=False: these are per-rule unit tests for the syntactic layer;
    # the flow analyses have their own suite in tests/lint/test_flow.py.
    return lint_text(textwrap.dedent(source), path="fixture.py", flow=False)


def rules_hit(source):
    return [f.rule for f in lint(source)]


def test_registry_contains_the_documented_rules():
    assert set(rule_ids()) >= {
        "yield-from-comm",
        "determinism-hazard",
        "unit-hygiene",
        "api-missing-all",
        "api-mutable-default",
    }


# -- yield-from-comm --------------------------------------------------------


def test_bare_comm_call_is_flagged():
    findings = lint(
        """\
        __all__ = []
        def program(comm):
            comm.send(1, nbytes=1024)
            yield from comm.barrier()
        """
    )
    assert [f.rule for f in findings] == ["yield-from-comm"]
    assert findings[0].line == 3
    assert findings[0].severity is Severity.ERROR
    assert "yield from" in findings[0].message


def test_yield_without_from_is_flagged():
    findings = lint(
        """\
        __all__ = []
        def program(comm):
            msg = yield comm.recv(src=0)
            return msg
        """
    )
    assert [f.rule for f in findings] == ["yield-from-comm"]
    assert "'yield from'" in findings[0].message


def test_discarded_request_is_flagged():
    assert rules_hit(
        """\
        __all__ = []
        def program(comm):
            comm.irecv(src=0)
            yield from comm.barrier()
        """
    ) == ["yield-from-comm"]


def test_discarded_event_factory_is_flagged():
    assert rules_hit(
        """\
        __all__ = []
        def program(comm):
            comm.env.timeout(1.0)
            yield from comm.barrier()
        """
    ) == ["yield-from-comm"]


def test_yield_from_event_factory_is_flagged():
    findings = lint(
        """\
        __all__ = []
        def program(env):
            yield from env.timeout(1.0)
        """
    )
    assert [f.rule for f in findings] == ["yield-from-comm"]
    assert "use 'yield'" in findings[0].message


def test_discarded_collective_generator_is_flagged():
    assert rules_hit(
        """\
        __all__ = []
        def program(comm):
            dissemination_barrier(comm)
            yield from comm.barrier()
        """
    ) == ["yield-from-comm"]


def test_correct_comm_idioms_are_clean():
    assert rules_hit(
        """\
        __all__ = []
        def program(comm):
            yield from comm.send(1, nbytes=8)
            msg = yield from comm.recv(src=1)
            req = comm.irecv(src=2)
            yield from comm.send(2, nbytes=8)
            other = yield from comm.wait(req)
            yield comm.env.timeout(1.0)
            yield from comm.barrier()
            return msg, other
        """
    ) == []


def test_non_comm_methods_are_not_flagged():
    assert rules_hit(
        """\
        __all__ = []
        def f(items, sock):
            items.append(1)
            sock.close()
        """
    ) == []


# -- determinism-hazard -----------------------------------------------------


def test_wall_clock_is_flagged():
    findings = lint(
        """\
        __all__ = []
        import time
        def f():
            return time.time()
        """
    )
    assert [f.rule for f in findings] == ["determinism-hazard"]


def test_datetime_now_is_flagged():
    assert rules_hit(
        """\
        __all__ = []
        import datetime
        def f():
            return datetime.datetime.now()
        """
    ) == ["determinism-hazard"]


def test_stdlib_random_is_flagged():
    assert rules_hit(
        """\
        __all__ = []
        import random
        def f():
            return random.randint(0, 7)
        """
    ) == ["determinism-hazard"]


def test_numpy_legacy_rng_is_flagged():
    assert rules_hit(
        """\
        __all__ = []
        import numpy as np
        def f():
            return np.random.rand(4)
        """
    ) == ["determinism-hazard"]


def test_unseeded_default_rng_is_flagged():
    assert rules_hit(
        """\
        __all__ = []
        import numpy as np
        def f():
            return np.random.default_rng()
        """
    ) == ["determinism-hazard"]


def test_seeded_default_rng_is_clean():
    assert rules_hit(
        """\
        __all__ = []
        import numpy as np
        def f(seed):
            rng = np.random.default_rng(seed)
            return rng.random(3)
        """
    ) == []


# -- unit-hygiene -----------------------------------------------------------


def test_magic_timeout_literal_is_flagged():
    findings = lint(
        """\
        __all__ = []
        def program(env):
            yield env.timeout(0.000003)
        """
    )
    assert [f.rule for f in findings] == ["unit-hygiene"]
    assert findings[0].severity is Severity.WARNING
    assert "US" in findings[0].message


def test_magic_latency_keyword_is_flagged():
    assert rules_hit(
        """\
        __all__ = []
        def f(make):
            return make(latency=0.0000028)
        """
    ) == ["unit-hygiene"]


def test_unit_constants_and_exponent_notation_are_clean():
    assert rules_hit(
        """\
        __all__ = []
        US = 1e-6
        def program(env, make):
            yield env.timeout(3 * US)
            yield env.timeout(2.5)
            yield env.timeout(0)
            return make(latency=3.0e-6, hop_latency=100e-9)
        """
    ) == []


# -- api-hygiene ------------------------------------------------------------


def test_missing_all_is_flagged():
    findings = lint("def f():\n    return 1\n")
    assert [f.rule for f in findings] == ["api-missing-all"]
    assert findings[0].severity is Severity.WARNING


def test_private_modules_are_exempt_from_all():
    assert lint_text("def f():\n    return 1\n", path="pkg/_private.py") == []
    assert lint_text("def f():\n    return 1\n", path="pkg/__main__.py") == []


def test_test_modules_are_exempt_from_all():
    body = "def f():\n    return 1\n"
    assert lint_text(body, path="tests/apps/test_x.py") == []
    assert lint_text(body, path="tests/conftest.py") == []
    assert lint_text(body, path="tests/apps/__init__.py") == []


def test_main_guarded_scripts_are_exempt_from_all():
    script = 'def main():\n    return 1\n\nif __name__ == "__main__":\n    main()\n'
    assert lint_text(script, path="examples/quickstart.py") == []
    # ...but an __init__ outside a tests/ tree is still public surface.
    body = "def f():\n    return 1\n"
    assert [f.rule for f in lint_text(body, path="pkg/__init__.py")] == ["api-missing-all"]


def test_mutable_default_is_flagged():
    findings = lint(
        """\
        __all__ = []
        def f(items=[]):
            return items
        """
    )
    assert [f.rule for f in findings] == ["api-mutable-default"]
    assert "'items'" in findings[0].message


def test_mutable_default_call_and_kwonly_are_flagged():
    assert rules_hit(
        """\
        __all__ = []
        def f(a, cache=dict(), *, seen=set()):
            return a, cache, seen
        """
    ) == ["api-mutable-default", "api-mutable-default"]


def test_none_default_is_clean():
    assert rules_hit(
        """\
        __all__ = []
        def f(items=None, n=3, name="x"):
            return items or [n, name]
        """
    ) == []


# -- suppressions -----------------------------------------------------------


def test_line_suppression_silences_only_that_line():
    findings = lint(
        """\
        __all__ = []
        import time
        def f():
            a = time.time()  # simlint: ignore[determinism-hazard]
            b = time.time()
            return a, b
        """
    )
    assert [f.line for f in findings] == [5]


def test_file_suppression_silences_the_named_rule_everywhere():
    findings = lint(
        """\
        # simlint: ignore[determinism-hazard]
        __all__ = []
        import time
        def f(items=[]):
            return time.time(), items
        """
    )
    assert [f.rule for f in findings] == ["api-mutable-default"]


def test_blanket_suppression_silences_everything():
    assert lint(
        """\
        # simlint: ignore
        import time
        def f(items=[]):
            return time.time(), items
        """
    ) == []


def test_parse_error_is_reported_not_raised():
    findings = lint("def broken(:\n")
    assert [f.rule for f in findings] == ["parse-error"]
