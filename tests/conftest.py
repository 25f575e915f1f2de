import sys

import pytest
from hypothesis import HealthCheck, settings

import hypflow.hypersurface as hypersurface

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(name) rebinds the hypersurface function `name` in every
    hypflow module that holds it to a wrapper that records the first argument
    of each call, and returns that record."""

    def install(name):
        original, record = getattr(hypersurface, name), []

        def counted(first, *args):
            record.append(first)
            return original(first, *args)
        for module in list(sys.modules.values()):
            if module is not None and module.__name__.split(".")[0] == "hypflow" \
                    and module.__dict__.get(name) is original:
                monkeypatch.setattr(module, name, counted)
        return record

    return install
