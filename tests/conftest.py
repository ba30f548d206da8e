import pytest

from pidtucker import Ranks, SyntheticSpec, _kernel, generate_synthetic, split

# Shared ground-truth fixture: known rank-(3,3,3) structure, 10% observed,
# light Gaussian noise.
FIXTURE_SPEC = SyntheticSpec(
    dims=(20, 15, 30),
    ranks=Ranks(3, 3, 3),
    observed_fraction=0.10,
    noise_sigma=0.01,
    value_offset=0.0,
    seed=20240,
)


@pytest.fixture(scope="session")
def synthetic_fixture():
    tensor, truth = generate_synthetic(FIXTURE_SPEC)
    return tensor, truth


@pytest.fixture(scope="session")
def fixture_split(synthetic_fixture):
    tensor, _ = synthetic_fixture
    return split(tensor, (0.08, 0.02, 0.90), seed=101)


@pytest.fixture(params=["kernel", "numpy"])
def each_backend(request, monkeypatch):
    """Run a test once with the compiled kernel and once with the reference code."""
    if request.param == "numpy":
        monkeypatch.setattr(_kernel, "_tried", True)
        monkeypatch.setattr(_kernel, "_lib", None)
    elif _kernel.library() is None:
        pytest.skip("no kernel can be built here (gcc or cache dir)")
    return request.param
