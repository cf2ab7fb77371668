import os

import pytest


@pytest.fixture(autouse=True, scope="session")
def document_cache(tmp_path_factory):
    """The command line's document cache (phode.doccache) of the whole
    session, in a temporary directory: no test writes under the home
    directory, and commands run in subprocesses inherit the location."""
    old = os.environ.get("XDG_CACHE_HOME")
    os.environ["XDG_CACHE_HOME"] = str(tmp_path_factory.mktemp("xdg-cache"))
    yield os.environ["XDG_CACHE_HOME"]
    if old is None:
        del os.environ["XDG_CACHE_HOME"]
    else:
        os.environ["XDG_CACHE_HOME"] = old
