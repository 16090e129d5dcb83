"""The reusable executor lifecycle, on all four backends.

The job service leases executors from a warm pool, so the lifecycle
contract must hold everywhere: ``close()`` is idempotent, a closed
executor refuses to run with a clear error, ``reset()`` returns a used
instance to a runnable state, and the context-manager form closes on
exit.  These are pure lifecycle tests — output parity for reused
instances lives in test_service.py / test_job_service.py.
"""

import pytest

from repro.apps import sio_dataset, sio_job
from repro.core.executor import make_executor

BACKENDS = ("sim", "serial", "local", "cluster")

DATASET = sio_dataset(n_elements=400, chunk_elements=100, key_space=64, seed=5)
JOB = sio_job(DATASET.key_space)


@pytest.mark.parametrize("backend", BACKENDS)
def test_close_is_idempotent(backend):
    ex = make_executor(backend, 2)
    assert not ex.closed
    ex.close()
    assert ex.closed
    ex.close()  # second close must be a no-op, not an error
    assert ex.closed


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_after_close_raises(backend):
    ex = make_executor(backend, 2)
    ex.close()
    with pytest.raises(RuntimeError, match="closed"):
        ex.run(JOB, DATASET)


@pytest.mark.parametrize("backend", BACKENDS)
def test_context_manager_closes(backend):
    with make_executor(backend, 2) as ex:
        assert not ex.closed
    assert ex.closed


@pytest.mark.parametrize("backend", ("sim", "serial"))
def test_reset_enables_rerun(backend):
    ex = make_executor(backend, 2)
    first = ex.run(JOB, DATASET)
    ex.job_id = "lease-one"
    ex.reset()
    assert ex.job_id is None  # reset clears the previous lease's tag
    second = ex.run(JOB, DATASET)
    for a, b in zip(first.outputs, second.outputs):
        assert a.values.tobytes() == b.values.tobytes()
    ex.close()


def test_make_executor_passthrough_returns_prebuilt():
    ex = make_executor("serial", 2)
    assert make_executor("serial", 2, executor=ex) is ex
    ex.close()


def test_make_executor_passthrough_validates_shape():
    ex = make_executor("serial", 2)
    with pytest.raises(ValueError, match="pre-built executor"):
        make_executor("serial", 3, executor=ex)
    with pytest.raises(ValueError, match="pre-built executor"):
        make_executor("sim", 2, executor=ex)
    with pytest.raises(ValueError, match="conflicting kwargs"):
        make_executor("serial", 2, executor=ex, obs=None)
    ex.close()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("bad", (True, "trace.jsonl", object()))
def test_non_observability_obs_is_rejected_at_construction(backend, bad):
    # Used to construct fine and die inside run() with
    # "'bool' object has no attribute 'reset'".
    with pytest.raises(TypeError, match="Observability"):
        make_executor(backend, 2, obs=bad)
