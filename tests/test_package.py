import fedtrap


def test_every_exported_name_resolves():
    missing = [name for name in fedtrap.__all__ if not hasattr(fedtrap, name)]
    assert missing == []
