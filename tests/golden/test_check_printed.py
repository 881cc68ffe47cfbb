"""``submit --wait`` prints each job's corpus digest, and CI checks it."""

from repro.service import ThreadedServer
from repro.service.__main__ import main as service_main
from tests.golden import check_printed


def test_submit_prints_corpus_digests(tmp_path, capsys):
    argv = ["submit", "mpsc", "counter", "--configs", "B,WB", "--cores", "2",
            "--ops", "4", "--txns", "3", "--wait", "--port"]
    with ThreadedServer(max_workers=1, cache_dir=tmp_path) as server:
        assert service_main(argv + [str(server.port)]) == 0
    printed = tmp_path / "first.out"
    printed.write_text(capsys.readouterr().out)
    assert check_printed.main([str(printed), "2"]) == 0

    # A 1-core reading of the same lines names other cases.
    assert check_printed.main([str(printed)]) == 1
    lines = printed.read_text().splitlines()
    printed.write_text("\n".join(line for line in lines
                                 if not line.startswith("done ")))
    assert check_printed.main([str(printed), "2"]) == 1
