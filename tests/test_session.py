from g9cov import cli
from g9cov.reps import character_table, rep_matrices
from g9cov.session import get_session


def test_session_builds_images_on_first_read(capsys):
    fresh = get_session.__wrapped__()
    assert fresh.engine._mats == {}
    cli.cmd_group(cli.build_parser().parse_args(["group"]), fresh)
    capsys.readouterr()
    assert fresh.engine._mats == {}          # the group listing reads no images
    assert fresh.mats[29] == rep_matrices(fresh.rep(29), fresh.table)
    assert list(fresh.engine._mats) == [29]
    assert len(fresh.mats) == 32 and list(fresh.mats) == list(range(1, 33))
    assert fresh.chars == character_table(fresh.reps, fresh.table)
    assert list(fresh.engine._mats) == [29]  # the characters read no full image lists
    built = {r.rid: rep_matrices(r, fresh.table) for r in fresh.reps}
    at_reference = [[built[r.rid][i].trace() for i in fresh.table.class_reps]
                    for r in fresh.reps]
    assert fresh.chars == at_reference
