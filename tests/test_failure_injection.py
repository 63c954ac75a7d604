"""Failure-injection tests: HDFS datanode loss and engine-level faults."""

import pytest

from repro.errors import HdfsError, MapReduceError
from repro.mapreduce.faults import DatanodeKill, FaultPlan
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.job import MapReduceJob, identity_reducer
from repro.mapreduce.runner import SerialRunner
from repro.mapreduce.types import JobConf


@pytest.fixture
def hdfs():
    fs = SimulatedHDFS(num_datanodes=4, block_size=16, replication=2, seed=0)
    fs.put("/data", bytes(range(64)))
    return fs


class TestDatanodeFailure:
    def test_read_survives_single_failure(self, hdfs):
        """Replication 2: any single node loss leaves every block readable."""
        for node in range(4):
            hdfs.fail_datanode(node)
            assert hdfs.get("/data") == bytes(range(64))
            hdfs.restart_datanode(node)

    def test_double_failure_may_lose_blocks(self, hdfs):
        # Kill two nodes; if some block had both replicas there, reading fails.
        meta = hdfs.stat("/data")
        target = meta.blocks[0].replicas
        for node in target:
            hdfs.fail_datanode(node)
        with pytest.raises(HdfsError, match="replicas"):
            hdfs.read_block("/data", 0)

    def test_rereplication_restores_factor(self, hdfs):
        hdfs.fail_datanode(0)
        created = hdfs.rereplicate()
        # Every block must again have `replication` live replicas.
        meta = hdfs.stat("/data")
        for block in meta.blocks:
            live = [n for n in block.replicas if n in hdfs.live_datanodes]
            assert len(live) >= hdfs.replication
        # Node 0 held replicas before, so something must have been copied.
        assert created >= 0

    def test_rereplication_after_total_loss_raises(self, hdfs):
        meta = hdfs.stat("/data")
        for node in meta.blocks[0].replicas:
            hdfs.fail_datanode(node)
        with pytest.raises(HdfsError, match="lost all replicas"):
            hdfs.rereplicate()

    def test_read_after_rereplication_and_failure(self, hdfs):
        hdfs.fail_datanode(0)
        hdfs.rereplicate()
        hdfs.fail_datanode(1)
        hdfs.rereplicate()
        assert hdfs.get("/data") == bytes(range(64))

    def test_writes_avoid_dead_nodes(self, hdfs):
        hdfs.fail_datanode(2)
        meta = hdfs.put("/new", b"x" * 48)
        for block in meta.blocks:
            assert 2 not in block.replicas

    def test_all_nodes_dead(self):
        fs = SimulatedHDFS(num_datanodes=1, replication=1)
        fs.fail_datanode(0)
        with pytest.raises(HdfsError, match="no live datanodes"):
            fs.put("/x", b"data")

    def test_invalid_node_id(self, hdfs):
        with pytest.raises(HdfsError, match="out of range"):
            hdfs.fail_datanode(99)


class TestEngineFaults:
    def test_mapper_exception_propagates_with_context(self):
        def exploding_mapper(key, value):
            if key == 3:
                raise ValueError("record 3 is poison")
            yield key, value

        job = MapReduceJob(name="j", mapper=exploding_mapper, reducer=identity_reducer)
        with pytest.raises(ValueError, match="poison"):
            SerialRunner().run(job, [(i, i) for i in range(5)])

    def test_reducer_exception_propagates(self):
        def exploding_reducer(key, values):
            raise RuntimeError("reduce failed")

        job = MapReduceJob(name="j", mapper=lambda k, v: [(k, v)], reducer=exploding_reducer)
        with pytest.raises(RuntimeError, match="reduce failed"):
            SerialRunner().run(job, [(0, 0)])

    def test_none_yielding_mapper_tolerated(self):
        """A mapper returning None (filtering everything) is legal."""
        job = MapReduceJob(name="j", mapper=lambda k, v: None, reducer=identity_reducer)
        result = SerialRunner().run(job, [(0, 0), (1, 1)])
        assert result.output == []

    def test_unsortable_keys_fall_back(self):
        """Mixed-type keys must not crash the shuffle or the output sort."""
        def mixed_mapper(key, value):
            yield (key if key % 2 else str(key)), value

        job = MapReduceJob(name="j", mapper=mixed_mapper, reducer=identity_reducer)
        result = SerialRunner().run(job, [(i, i) for i in range(6)])
        assert len(result.output) == 6


class _BlockReducer:
    """Reducer that reads its HDFS block at reduce time — so datanodes
    that die between the map and reduce phases matter to it."""

    def __init__(self, hdfs, path):
        self.hdfs = hdfs
        self.path = path

    def __call__(self, key, values):
        yield key, len(self.hdfs.read_block(self.path, key))


class TestDatanodeDiesMidJob:
    """A datanode killed between map and reduce (the "map_end" barrier)."""

    def make_job(self, hdfs):
        hdfs.put("/blocks", bytes(range(64)))
        job = MapReduceJob(
            name="blockread",
            mapper=lambda key, value: [(key, value)],
            reducer=_BlockReducer(hdfs, "/blocks"),
        )
        num_blocks = hdfs.stat("/blocks").num_blocks
        inputs = [(i, i) for i in range(num_blocks)]
        return job, inputs

    def test_job_completes_via_rereplication(self):
        fs = SimulatedHDFS(num_datanodes=4, block_size=16, replication=2, seed=0)
        job, inputs = self.make_job(fs)
        # Kill BOTH nodes holding block 0's replicas — only the
        # re-replication after the first kill keeps the block readable.
        doomed = fs.stat("/blocks").blocks[0].replicas
        plan = FaultPlan(
            datanode_kills=[DatanodeKill("map_end", n) for n in doomed]
        ).bind_hdfs(fs)
        result = SerialRunner(fault_plan=plan).run(
            job, inputs, JobConf(num_map_tasks=2, num_reduce_tasks=2)
        )
        assert dict(result.output) == {i: 16 for i, _ in inputs}
        assert result.counters.get("fault", "datanodes_killed") == 2
        assert result.counters.get("fault", "replicas_recreated") > 0
        assert sorted(fs.live_datanodes) == sorted(
            set(range(4)) - set(doomed)
        )

    def test_job_fails_without_rereplication(self):
        fs = SimulatedHDFS(num_datanodes=4, block_size=16, replication=2, seed=0)
        job, inputs = self.make_job(fs)
        doomed = fs.stat("/blocks").blocks[0].replicas
        plan = FaultPlan(
            datanode_kills=[DatanodeKill("map_end", n) for n in doomed],
            auto_rereplicate=False,
        ).bind_hdfs(fs)
        with pytest.raises(HdfsError, match="replicas"):
            SerialRunner(fault_plan=plan).run(
                job, inputs, JobConf(num_map_tasks=2, num_reduce_tasks=2)
            )
