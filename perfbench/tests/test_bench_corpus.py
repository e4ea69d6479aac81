import corpus


def _bytes(directory, seed, n_objects):
    paths = corpus.write(corpus.generate(seed, n_objects), directory)
    return [p.read_bytes() for p in (*paths, corpus.sidecar_path(paths[1]))]


def test_same_seed_gives_same_bytes(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert _bytes(tmp_path / "a", 7, corpus.FULL_OBJECTS) == _bytes(tmp_path / "b", 7, corpus.FULL_OBJECTS)


def test_seed_changes_content_but_not_shape():
    a, b = corpus.generate(1), corpus.generate(2)
    assert a["rows"] != b["rows"]
    assert corpus.shape(a) == corpus.shape(b)
    shape = corpus.shape(a)
    assert 9500 <= shape["rows"] <= 10500
    assert shape["objects"] == 1000
    assert abs(shape["singleton_share"] - corpus.SINGLETON_SHARE) < 0.005
    assert abs(shape["unknown_share"] - corpus.UNKNOWN_SHARE) < 0.005


def test_both_formats_load_to_the_same_dataset(tmp_path):
    import qrakit

    json_path, csv_path = corpus.write(corpus.generate(3, 30), tmp_path)
    assert qrakit.load_dataset(json_path) == qrakit.load_dataset(csv_path)
