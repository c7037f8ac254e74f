"""Fixture suite for the worker-pool safety rules.

The first picklability test is the acceptance fixture: a lambda published
to the pool must be caught by name.
"""

from repro.analysis import resolve_rules, run_source

MODULE = "repro.runtime.fixture"
PICKLE = resolve_rules(select=["pool-payload-picklability"])
LOCKS = resolve_rules(select=["lock-coverage"])


def rules_of(source, rules, module=MODULE):
    return [f.rule for f in run_source(source, module=module, rules=rules)]


class TestPoolPayloadPicklability:
    def test_lambda_published_to_pool_is_caught(self):
        # The acceptance fixture: a lambda handed to WorkerPool.publish.
        source = (
            "def ship(pool, store):\n"
            "    pool.publish('profiles', lambda: store)\n"
        )
        assert rules_of(source, PICKLE) == ["pool-payload-picklability"]

    def test_lambda_keyword_argument_is_caught(self):
        source = (
            "def ship(pool):\n"
            "    pool.publish('slot', payload=lambda: 1)\n"
        )
        assert rules_of(source, PICKLE) == ["pool-payload-picklability"]

    def test_nested_function_submitted_is_caught(self):
        source = (
            "def run(executor, chunk):\n"
            "    def work():\n"
            "        return chunk\n"
            "    return executor.submit(work)\n"
        )
        assert rules_of(source, PICKLE) == ["pool-payload-picklability"]

    def test_lambda_assignment_submitted_is_caught(self):
        source = (
            "def run(executor):\n"
            "    work = lambda: 1\n"
            "    return executor.submit(work)\n"
        )
        assert rules_of(source, PICKLE) == ["pool-payload-picklability"]

    def test_partial_over_a_nested_function_is_caught(self):
        source = (
            "from functools import partial\n"
            "\n"
            "def run(executor, chunk):\n"
            "    def work(c):\n"
            "        return c\n"
            "    return executor.submit(partial(work, chunk))\n"
        )
        assert rules_of(source, PICKLE) == ["pool-payload-picklability"]

    def test_module_level_function_is_clean(self):
        source = (
            "def work(chunk):\n"
            "    return chunk\n"
            "\n"
            "def run(executor, chunk):\n"
            "    return executor.submit(work, chunk)\n"
        )
        assert rules_of(source, PICKLE) == []

    def test_partial_over_a_module_level_function_is_clean(self):
        source = (
            "from functools import partial\n"
            "\n"
            "def work(c):\n"
            "    return c\n"
            "\n"
            "def run(executor, chunk):\n"
            "    return executor.submit(partial(work, chunk))\n"
        )
        assert rules_of(source, PICKLE) == []

    def test_methods_of_module_level_classes_are_clean(self):
        source = (
            "class Stage:\n"
            "    def work(self, chunk):\n"
            "        return chunk\n"
            "\n"
            "    def run(self, executor, chunk):\n"
            "        return executor.submit(self.work, chunk)\n"
        )
        assert rules_of(source, PICKLE) == []

    def test_suppression_silences(self):
        source = (
            "def run(executor):\n"
            "    return executor.submit(lambda: 1)  # repro-lint: disable=pool-payload-picklability -- never leaves the parent\n"
        )
        assert rules_of(source, PICKLE) == []


LOCKED_CLASS = (
    "import threading\n"
    "\n"
    "class Counter:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self._count = 0\n"
    "\n"
    "    def bump(self):\n"
    "        with self._lock:\n"
    "            self._count += 1\n"
    "\n"
)


class TestLockCoverage:
    def test_unlocked_mutation_of_a_locked_attribute_is_caught(self):
        source = LOCKED_CLASS + (
            "    def reset(self):\n"
            "        self._count = 0\n"
        )
        findings = run_source(source, module=MODULE, rules=LOCKS)
        assert [f.rule for f in findings] == ["lock-coverage"]
        assert "_count" in findings[0].message
        assert "reset" in findings[0].message

    def test_unlocked_mutating_method_call_is_caught(self):
        source = (
            "import threading\n"
            "\n"
            "class Registry:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._items = {}\n"
            "\n"
            "    def put(self, key, value):\n"
            "        with self._lock:\n"
            "            self._items[key] = value\n"
            "\n"
            "    def drop(self, key):\n"
            "        self._items.pop(key, None)\n"
        )
        findings = run_source(source, module=MODULE, rules=LOCKS)
        assert [f.rule for f in findings] == ["lock-coverage"]

    def test_fully_locked_class_is_clean(self):
        source = LOCKED_CLASS + (
            "    def reset(self):\n"
            "        with self._lock:\n"
            "            self._count = 0\n"
        )
        assert rules_of(source, LOCKS) == []

    def test_init_is_exempt(self):
        # LOCKED_CLASS itself assigns self._count in __init__ without the
        # lock; construction is single-threaded by definition.
        assert rules_of(LOCKED_CLASS, LOCKS) == []

    def test_class_without_a_lock_is_out_of_scope(self):
        source = (
            "class Plain:\n"
            "    def __init__(self):\n"
            "        self._count = 0\n"
            "\n"
            "    def bump(self):\n"
            "        self._count += 1\n"
        )
        assert rules_of(source, LOCKS) == []

    def test_attributes_never_locked_are_not_flagged(self):
        source = LOCKED_CLASS + (
            "    def note(self, message):\n"
            "        self._last_message = message\n"
        )
        assert rules_of(source, LOCKS) == []

    def test_suppression_silences(self):
        source = LOCKED_CLASS + (
            "    def reset(self):\n"
            "        self._count = 0  # repro-lint: disable=lock-coverage -- caller holds the lock\n"
        )
        assert rules_of(source, LOCKS) == []

    def test_shipped_worker_pool_is_fully_locked(self):
        # The real WorkerPool grounds this rule: every mutation of its
        # epoch/executor/stats state outside __init__ holds self._lock.
        from pathlib import Path

        source = Path("src/repro/runtime/pool.py").read_text(encoding="utf-8")
        findings = run_source(
            source, module="repro.runtime.pool", rules=LOCKS
        )
        assert findings == []
