import pytest

from systems import root_system


@pytest.fixture(scope="session")
def a1():
    return root_system("A", 1)


@pytest.fixture(scope="session")
def a2():
    return root_system("A", 2)


@pytest.fixture(scope="session")
def a3():
    return root_system("A", 3)


@pytest.fixture(scope="session")
def b2():
    return root_system("B", 2)


@pytest.fixture(scope="session")
def c2():
    return root_system("C", 2)


@pytest.fixture(scope="session")
def b3():
    return root_system("B", 3)


@pytest.fixture(scope="session")
def c3():
    return root_system("C", 3)
