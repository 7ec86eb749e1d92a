import pytest


@pytest.fixture(autouse=True, scope="session")
def shim_cache(tmp_path_factory):
    """Point the cache of the fork-server shim and the mutation kernel at a
    directory of this session, so the suite never writes to the real
    ``~/.cache``. Processes the tests start inherit it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield
