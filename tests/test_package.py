import pidtucker


def test_every_public_name_resolves():
    missing = [name for name in pidtucker.__all__ if not hasattr(pidtucker, name)]
    assert missing == []
