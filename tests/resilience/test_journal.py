"""The offload journal's crash-consistency contract.

A journal truncated or bit-flipped mid-write must yield the longest valid
prefix — a consistent (if shorter) history, never a corrupted one — and
replaying the same journal must always fold to the same committed tiles.
"""

import threading

import pytest

from repro.resilience import (
    RECORD_KINDS,
    JournalRecord,
    OffloadJournal,
    checksum_matches,
    content_checksum,
    virtual_checksum,
)


def _sample_journal() -> OffloadJournal:
    """Tile commits of two loops of ``mm#1`` (the first without a ``loop``
    field) interleaved with one of another offload."""
    j = OffloadJournal()
    j.record("tile_done", "mm#1", time=0.1, region="mm", loop_var="i",
             tile=0, lo=0, hi=64, key="out/C/t0", checksum="crc32:00000001",
             nbytes=256, end=0.1)
    j.record("tile_done", "mm#1", time=0.2, region="mm", loop_var="i",
             tile=1, lo=64, hi=128, key="out/C/t1", checksum="crc32:00000002",
             nbytes=256, end=0.2)
    j.record("tile_done", "mm#1", time=1.0, region="mm", loop=1,
             loop_var="i", tile=0, lo=0, hi=64, key="out/D/t0",
             checksum="crc32:00000003", nbytes=256, end=1.0)
    j.record("tile_done", "mv#2", time=1.2, region="mv", loop=0,
             loop_var="j", tile=0, lo=0, hi=32, key="out/y/t0",
             checksum="crc32:00000004", nbytes=128, end=1.2)
    j.record("tile_done", "mm#1", time=1.5, region="mm", loop=1,
             loop_var="i", tile=1, lo=64, hi=128, key="out/D/t1",
             checksum="crc32:00000005", nbytes=256, end=1.5)
    return j


# ------------------------------------------------------------------- records

def test_unknown_kind_rejected_at_write_time():
    j = OffloadJournal()
    with pytest.raises(ValueError, match="unknown journal record kind"):
        j.record("tile_donee", "mm#1")
    assert len(j) == 0


def test_sequence_numbers_strictly_increase_across_threads():
    j = OffloadJournal()

    def hammer():
        for _ in range(200):
            j.record("tile_done", "mm#1")

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    seqs = [r.seq for r in j]
    assert len(seqs) == 800
    assert seqs == sorted(set(seqs))


def test_encode_decode_roundtrip():
    rec = _sample_journal().records("tile_done")[0]
    back = JournalRecord.decode(rec.encode())
    assert back == rec


def test_decode_rejects_tampered_crc():
    line = _sample_journal().records()[0].encode()
    tampered = line.replace('\\"time\\":0.1', '\\"time\\":9.9')
    assert tampered != line
    assert JournalRecord.decode(tampered) is None


@pytest.mark.parametrize("garbage", [
    "not json at all",
    "{}",
    '{"crc": 0, "rec": "{}"}',
    '{"crc": 123, "rec": "{\\"seq\\": 1}"}',
])
def test_decode_rejects_damaged_lines(garbage):
    assert JournalRecord.decode(garbage) is None


def test_decode_rejects_unknown_kind_even_with_valid_crc():
    rec = JournalRecord(seq=1, kind="tile_done", correlation_id="x",
                        time=0.0, payload={})
    # Re-seal a body with a kind the catalogue does not know.
    import json
    import zlib
    body = rec._body().replace('"tile_done"', '"mystery_kind"')
    line = json.dumps({"crc": zlib.crc32(body.encode()) & 0xFFFFFFFF,
                       "rec": body}, separators=(",", ":"))
    assert JournalRecord.decode(line) is None


# -------------------------------------------------------------- crash shapes

def test_from_lines_roundtrips_an_undamaged_journal(tmp_path):
    j = _sample_journal()
    path = tmp_path / "journal.jsonl"
    j.dump(str(path))
    back = OffloadJournal.from_lines(path.read_text().splitlines())
    assert back.records() == j.records()


def test_torn_tail_is_dropped():
    lines = _sample_journal().lines()
    lines[-1] = lines[-1][: len(lines[-1]) // 2]  # crash mid-write
    back = OffloadJournal.from_lines(lines)
    assert back.records() == _sample_journal().records()[:-1]


def test_bitflip_in_the_middle_truncates_from_there():
    lines = _sample_journal().lines()
    lines[2] = lines[2].replace('\\"tile\\":0', '\\"tile\\":7')
    back = OffloadJournal.from_lines(lines)
    assert lines[2] != _sample_journal().lines()[2]
    assert len(back) == 2  # everything from the damaged record on is gone
    assert [r.seq for r in back] == [1, 2]


def test_sequence_regression_marks_the_tail():
    lines = _sample_journal().lines()
    # Replaying an already-seen line (e.g. a double flush) must not fork
    # history: the repeat and everything after it are dropped.
    lines.insert(3, lines[1])
    back = OffloadJournal.from_lines(lines)
    assert len(back) == 3


def test_from_lines_resumes_numbering_after_the_kept_prefix():
    back = OffloadJournal.from_lines(_sample_journal().lines()[:3])
    rec = back.record("tile_done", "mm#1")
    assert rec.seq == 4


def test_from_lines_skips_blank_lines():
    lines = _sample_journal().lines()
    interleaved = [lines[0], "", "  ", lines[1]]
    assert len(OffloadJournal.from_lines(interleaved)) == 2


# ------------------------------------------------------------------- replay

def test_replay_is_idempotent_and_pure():
    j = _sample_journal()
    s1, s2 = j.replay(), j.replay()
    for corr in ("mm#1", "mv#2"):
        assert s1.completed_tiles(corr) == s2.completed_tiles(corr)


def test_replay_folds_tiles_and_commits():
    state = _sample_journal().replay()
    tiles = state.completed_tiles("mm#1")
    assert set(tiles) == {0, 1}  # keyed by loop ordinal (absent = first loop)
    assert set(tiles[0]) == {0, 1} and set(tiles[1]) == {0, 1}
    ckpt = tiles[0][1]
    assert (ckpt.lo, ckpt.hi, ckpt.key) == (64, 128, "out/C/t1")
    assert tiles[1][1].key == "out/D/t1"
    assert set(state.completed_tiles("mv#2")) == {0}
    assert state.completed_tiles("other#9") == {}


def test_replay_ignores_unverifiable_tile_records():
    j = OffloadJournal()
    j.record("tile_done", "mm#1", loop_var="i", tile=-1, key="out/t")
    j.record("tile_done", "mm#1", loop_var="i", tile=0, key="")
    assert j.replay().completed_tiles("mm#1") == {}


def test_record_kinds_catalogue_is_closed():
    j = _sample_journal()
    assert {r.kind for r in j} <= RECORD_KINDS == {"tile_done"}


# ---------------------------------------------------------------- integrity

def test_content_checksum_is_deterministic_and_content_sensitive():
    assert content_checksum(b"abc") == content_checksum(b"abc")
    assert content_checksum(b"abc") != content_checksum(b"abd")
    assert content_checksum(b"").startswith("crc32:")


def test_virtual_checksum_depends_on_key_and_size():
    assert virtual_checksum("in/A", 64) == virtual_checksum("in/A", 64)
    assert virtual_checksum("in/A", 64) != virtual_checksum("in/A", 65)
    assert virtual_checksum("in/A", 64) != virtual_checksum("in/B", 64)


def test_virtual_and_content_digests_never_collide():
    # Self-describing prefixes: a real-bytes digest can't compare equal to a
    # virtual one even if the CRCs happen to match.
    assert not checksum_matches(virtual_checksum("k", 3),
                                content_checksum(b"abc"))


def test_checksum_matches_treats_empty_expected_as_unrecorded():
    assert checksum_matches("", content_checksum(b"x"))
    assert checksum_matches("crc32:01", "crc32:01")
    assert not checksum_matches("crc32:01", "crc32:02")
