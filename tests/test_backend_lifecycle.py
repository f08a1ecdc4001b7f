"""Deregistration lifecycle audit: every backend raises
UnknownClientError consistently for unknown/double deregistration."""

import pytest

from repro.core import OrionConfig
from repro.experiments.testbed import Testbed
from repro.runtime import UnknownClientError

BACKEND_NAMES = ("orion", "reef", "streams", "priority-streams", "mps",
                 "temporal", "ticktock", "dedicated")


def make_backend(name: str):
    """A fresh backend from the registry ("dedicated" is "ideal")."""
    testbed = Testbed.build("V100-16GB", seed=0)
    registry_name = "ideal" if name == "dedicated" else name
    return testbed.gpu(registry_name,
                       OrionConfig(hp_request_latency=1e-3)).backend


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_deregister_unknown_client_raises(name):
    backend = make_backend(name)
    with pytest.raises(UnknownClientError):
        backend.deregister_client("nobody")
    # UnknownClientError subclasses KeyError, so legacy callers that
    # catch KeyError keep working.
    with pytest.raises(KeyError):
        backend.deregister_client("nobody")


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_deregister_is_not_idempotent(name):
    backend = make_backend(name)
    kind = "training" if name == "ticktock" else "inference"
    backend.register_client("job", high_priority=False, kind=kind)
    assert "job" in backend.clients
    backend.deregister_client("job")
    assert "job" not in backend.clients
    with pytest.raises(UnknownClientError):
        backend.deregister_client("job")
    with pytest.raises(UnknownClientError):
        backend.client_info("job")


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_reregister_after_deregister(name):
    backend = make_backend(name)
    kind = "training" if name == "ticktock" else "inference"
    backend.register_client("job", high_priority=False, kind=kind)
    backend.deregister_client("job")
    info = backend.register_client("job", high_priority=False, kind=kind)
    assert info.client_id == "job"
    backend.deregister_client("job")
