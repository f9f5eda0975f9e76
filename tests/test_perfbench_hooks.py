"""Every per-layer hook of the benchmark names a function that exists."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_hook_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    sys.modules.pop("hooks", None)
    try:
        import hooks

        assert Path(hooks.__file__).resolve().parent == PERFBENCH
        targets = [target for _, target, _ in hooks.HOOKS] + [target for _, target in hooks.CACHES]
        assert len(targets) >= 39  # 38 hooks and one cache when this test was written
        for target in targets:
            owner, attr, obj = hooks.resolve(target)
            assert getattr(owner, attr) is obj and callable(obj), target
    finally:
        sys.modules.pop("hooks", None)
