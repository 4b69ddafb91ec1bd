import eclat


def test_public_names_resolve_sorted_and_unique():
    namespace: dict = {}
    exec("from eclat import *", namespace)
    names = eclat.__all__
    assert all(name in namespace and namespace[name] is getattr(eclat, name) for name in names)
    assert names == sorted(set(names))
