"""The durable-I/O layer: write shapes, drop accounting, fault injection.

Covers the three write shapes of DESIGN §5i against both backends:
``write_json_atomic`` (no partial ever visible, no tmp litter on
failure), :class:`JournalWriter` (durable, torn-tail isolation) and
:class:`BestEffortWriter` (degrades but *counts*).  Then the
:class:`FaultyIO` simulator itself: transparency when fault-free,
deterministic crash states, errno short writes, and fsync lies.
Last, the one read path (``read_json``/``read_jsonl``) every reader of
those files shares.
"""

import errno
import json
import os

import pytest

from repro.fsio import (
    DEFAULT_FAULT_ERRNOS,
    BestEffortWriter,
    FaultyIO,
    JournalWriter,
    SimulatedCrash,
    fsync_dir,
    quarantine_corrupt,
    read_json,
    read_jsonl,
    write_json_atomic,
    write_jsonl_atomic,
)


class TestWriteJsonAtomic:
    def test_round_trip_and_no_litter(self, tmp_path):
        path = str(tmp_path / "x.json")
        write_json_atomic(path, {"a": 1})
        write_json_atomic(path, {"a": 2})
        assert json.load(open(path)) == {"a": 2}
        assert os.listdir(tmp_path) == ["x.json"]

    def test_failed_write_cleans_its_tmp(self, tmp_path):
        path = str(tmp_path / "x.json")
        write_json_atomic(path, {"a": 1})
        # Inject ENOSPC on the payload write (op sequence per file:
        # open=0 write=1): the error must propagate, the old content
        # must survive, and no tmp file may remain.
        io = FaultyIO(errors={1: errno.ENOSPC})
        with pytest.raises(OSError):
            write_json_atomic(path, {"a": 2}, io=io)
        assert json.load(open(path)) == {"a": 1}
        assert os.listdir(tmp_path) == ["x.json"]

    def test_unserialisable_payload_cleans_its_tmp(self, tmp_path):
        path = str(tmp_path / "x.json")
        with pytest.raises(TypeError):
            write_json_atomic(path, {"bad": object()})
        assert os.listdir(tmp_path) == []

    def test_crash_mid_write_leaks_tmp_for_fsck(self, tmp_path):
        path = str(tmp_path / "x.json")
        io = FaultyIO(seed=1, crash_at=1)  # dies during the tmp write
        with pytest.raises(SimulatedCrash):
            write_json_atomic(path, {"a": 1}, io=io)
        io.apply_crash()
        # A dead process cannot tidy up: the tmp file is litter now
        # (possibly torn to zero bytes), and the target never appeared.
        assert not os.path.exists(path)
        leaked = [n for n in os.listdir(tmp_path) if ".tmp." in n]
        assert len(leaked) <= 1  # torn to nothing, or leaked

    def test_fsync_dir_swallows_refusal(self, tmp_path):
        fsync_dir(str(tmp_path))  # real dir: fine
        fsync_dir(str(tmp_path / "missing"))  # refused: advisory, no raise


class TestJournalWriter:
    def test_append_is_readable_line_per_record(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        writer = JournalWriter(path)
        writer.append({"cell_id": "a"})
        writer.append({"cell_id": "b"})
        writer.close()
        lines = [json.loads(l) for l in open(path) if l.strip()]
        assert [l["cell_id"] for l in lines] == ["a", "b"]

    def test_torn_tail_isolated_before_new_appends(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"cell_id": "a"}\n{"cell_id": "b", "st')  # torn
        writer = JournalWriter(path)
        writer.append({"cell_id": "c"})
        writer.close()
        lines = open(path).read().splitlines()
        # The torn fragment sits alone on its line; the new record is
        # intact and never concatenated with it.
        parsed = []
        for line in lines:
            try:
                parsed.append(json.loads(line))
            except json.JSONDecodeError:
                parsed.append(None)
        assert parsed[0] == {"cell_id": "a"}
        assert parsed[1] is None
        assert parsed[-1] == {"cell_id": "c"}

    def test_io_errors_propagate(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        io = FaultyIO(errors={0: errno.EIO})  # fails the makedirs
        writer = JournalWriter(path, io=io)
        with pytest.raises(OSError):
            writer.append({"cell_id": "a"})


class TestBestEffortWriter:
    def test_counts_drops_and_warns_once(self, tmp_path, capsys):
        # The target path is a directory: every write fails.
        target = tmp_path / "stream.jsonl"
        target.mkdir()
        writer = BestEffortWriter(str(target), label="test stream")
        assert writer.append({"e": 1}) is False
        assert writer.append({"e": 2}) is False
        assert writer.stats.writer_errors == 1
        assert writer.stats.dropped_events == 2
        assert writer.stats.first_error
        err = capsys.readouterr().err
        assert err.count("can no longer write") == 1

    def test_unserialisable_event_is_a_counted_drop(self, tmp_path):
        writer = BestEffortWriter(str(tmp_path / "s.jsonl"))
        assert writer.append({"bad": object()}) is False
        assert writer.stats.dropped_events == 1

    def test_telemetry_keys(self, tmp_path):
        writer = BestEffortWriter(str(tmp_path / "s.jsonl"))
        writer.append({"e": 1})
        writer.close()
        telemetry = writer.telemetry("stream")
        assert telemetry == {
            "stream_writes": 1.0,
            "stream_writer_errors": 0.0,
            "stream_dropped_events": 0.0,
        }


class TestFaultyIO:
    def write_with(self, io, path, payload):
        handle = io.open(path, "a")
        io.write(handle, payload)
        io.flush(handle)
        io.fsync(handle)
        io.close(handle)

    def test_fault_free_backend_is_transparent(self, tmp_path):
        path = str(tmp_path / "x.json")
        write_json_atomic(path, {"a": [1, 2, 3]}, io=FaultyIO())
        assert json.load(open(path)) == {"a": [1, 2, 3]}

    def test_crash_at_is_deterministic(self, tmp_path):
        for attempt in range(2):
            path = str(tmp_path / f"f{attempt}.txt")
            io = FaultyIO(seed=7, crash_at=1)
            with pytest.raises(SimulatedCrash) as exc:
                self.write_with(io, path, "hello world\n")
            assert exc.value.op_index == 1
            io.apply_crash()
            sizes = (
                os.path.getsize(path) if os.path.exists(path) else -1
            )
            if attempt == 0:
                first = sizes
            else:
                assert sizes == first  # same seed, same torn length

    def test_dead_process_cannot_keep_writing(self, tmp_path):
        io = FaultyIO(crash_at=0)
        with pytest.raises(SimulatedCrash):
            io.open(str(tmp_path / "a"), "a")
        with pytest.raises(SimulatedCrash):
            io.makedirs(str(tmp_path / "b"))

    def test_synced_data_survives_crash(self, tmp_path):
        path = str(tmp_path / "f.txt")
        io = FaultyIO(seed=0, crash_at=100)
        self.write_with(io, path, "durable\n")  # fsynced before crash
        handle = io.open(path, "a")
        io.write(handle, "volatile")
        with pytest.raises(SimulatedCrash):
            for _ in range(100):
                io.flush(handle)
        io.apply_crash()
        content = open(path).read()
        assert content.startswith("durable\n")

    def test_fsync_lies_leave_tail_volatile(self, tmp_path):
        path = str(tmp_path / "f.txt")
        # Crash far past the writes; with a lying fsync the whole
        # payload stays in the loss window.
        io = FaultyIO(seed=5, crash_at=6, fsync_lies=True)
        with pytest.raises(SimulatedCrash):
            self.write_with(io, path, "x" * 64)
            handle = io.open(path, "a")
            io.write(handle, "y" * 64)
            io.flush(handle)
        events = io.apply_crash()
        assert os.path.getsize(path) < 128
        assert any("torn" in e for e in events)

    def test_errno_injection_is_a_short_write(self, tmp_path):
        path = str(tmp_path / "f.txt")
        io = FaultyIO(seed=3, errors={1: errno.ENOSPC})
        handle = io.open(path, "a")
        with pytest.raises(OSError) as exc:
            io.write(handle, "a" * 100)
        assert exc.value.errno == errno.ENOSPC
        io.close(handle)
        assert os.path.getsize(path) < 100  # seeded prefix, not all

    def test_replace_rollback_leaks_tmp(self, tmp_path):
        # A rename not followed by a parent-dir fsync may be rolled
        # back by the crash.  Find a seed whose post-crash RNG does.
        for seed in range(20):
            base = tmp_path / f"s{seed}"
            base.mkdir()
            path, tmp = str(base / "x.json"), str(base / "x.json.tmp.1")
            io = FaultyIO(seed=seed)
            self.write_with(io, tmp, '{"a": 1}\n')
            io.replace(tmp, path)  # no fsync_path: rename not durable
            io.crashed = True
            io.apply_crash()
            leaked = [n for n in os.listdir(base) if ".tmp." in n]
            if leaked:
                # Rolled back: new content only in the leaked tmp file.
                assert not os.path.exists(path)
                assert open(os.path.join(base, leaked[0])).read() == (
                    '{"a": 1}\n'
                )
                return
        pytest.fail("no seed in 0..19 rolled the unsynced rename back")

    def test_op_log_tail_renders_window(self, tmp_path):
        io = FaultyIO()
        self.write_with(io, str(tmp_path / "f"), "x")
        tail = io.op_log_tail(window=3)
        assert len(tail) == 3
        assert all(tail[i].startswith("op ") for i in range(3))

    def test_default_fault_errnos(self):
        assert errno.ENOSPC in DEFAULT_FAULT_ERRNOS
        assert errno.EIO in DEFAULT_FAULT_ERRNOS


class TestQuarantine:
    def test_quarantine_numbered_on_repeat(self, tmp_path, capsys):
        for _ in range(2):
            path = str(tmp_path / "bad.json")
            open(path, "w").write("{ nope")
            moved = quarantine_corrupt(path)
            assert not os.path.exists(path)
        assert os.path.exists(str(tmp_path / "bad.json.corrupt"))
        assert moved == str(tmp_path / "bad.json.corrupt.1")
        assert "quarantined" in capsys.readouterr().err


class TestReadPath:
    def write(self, tmp_path, text):
        path = tmp_path / "f.jsonl"
        path.write_text(text)
        return str(path)

    def test_torn_means_only_the_last_line_is_bad(self, tmp_path):
        path = self.write(tmp_path, '{"a": 1}\n\n{"b": 2}\n{"c": \n\n')
        entries, bad, torn = read_jsonl(path)
        assert entries == [(1, {"a": 1}), (3, {"b": 2})]
        assert bad == [4] and torn

    def test_non_object_lines_are_bad(self, tmp_path):
        path = self.write(tmp_path, '{"a": 1}\n[1, 2]\n')
        assert read_jsonl(path) == ([(1, {"a": 1})], [2], True)

    def test_mid_file_damage_is_not_torn(self, tmp_path):
        path = self.write(tmp_path, '{"a": 1}\n{nope\n{"b": 2}\n')
        _, bad, torn = read_jsonl(path)
        assert bad == [2] and not torn
        path = self.write(tmp_path, '{nope\n{"a": 1}\n{nope\n')
        _, bad, torn = read_jsonl(path)
        assert bad == [1, 3] and not torn

    def test_missing_jsonl_reads_as_empty(self, tmp_path):
        assert read_jsonl(str(tmp_path / "absent.jsonl")) == ([], [], False)

    def test_invalid_utf8_is_one_bad_line(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_bytes(b'{"a": 1}\n{"b": "\xff"}\n{"c": 3}\n')
        assert read_jsonl(str(path)) == (
            [(1, {"a": 1}), (3, {"c": 3})], [2], False,
        )

    def test_jsonl_rewrite_round_trips(self, tmp_path):
        path = str(tmp_path / "f.jsonl")
        write_jsonl_atomic(path, [{"b": 1, "a": 2}, {"c": 3}])
        assert open(path).read() == '{"a":2,"b":1}\n{"c":3}\n'
        assert read_jsonl(path) == (
            [(1, {"a": 2, "b": 1}), (2, {"c": 3})], [], False,
        )
        assert os.listdir(tmp_path) == ["f.jsonl"]

    def test_read_json_reports_instead_of_raising(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text('{"a": 1}')
        assert read_json(str(good)) == ({"a": 1}, None)
        bad = tmp_path / "bad.json"
        bad.write_text("{ nope")
        payload, error = read_json(str(bad))
        assert payload is None and error.startswith("corrupt JSON")
        payload, error = read_json(str(tmp_path / "absent.json"))
        assert payload is None and error.startswith("unreadable")
