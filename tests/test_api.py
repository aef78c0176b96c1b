import tacempc


def test_public_names_resolve():
    missing = [name for name in tacempc.__all__ if not hasattr(tacempc, name)]
    assert missing == []


def test_public_names_unique():
    assert len(set(tacempc.__all__)) == len(tacempc.__all__)
