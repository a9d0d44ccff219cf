package star

import (
	"testing"
	"time"
)

func TestPublicAPIVirtualCluster(t *testing.T) {
	c, err := New(Config{
		Nodes:          3,
		WorkersPerNode: 2,
		Workload: YCSB(YCSBConfig{
			Partitions:          6,
			RecordsPerPartition: 256,
			CrossPct:            20,
		}),
		Iteration: 2 * time.Millisecond,
		Virtual:   true,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(40 * time.Millisecond)
	st := c.Stats()
	if st.Committed == 0 {
		t.Fatal("no commits through the public API")
	}
	c.Freeze()
	c.Run(20 * time.Millisecond)
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIRealCluster(t *testing.T) {
	c, err := New(Config{
		Nodes:          2,
		WorkersPerNode: 2,
		Workload: YCSB(YCSBConfig{
			Partitions:          4,
			RecordsPerPartition: 128,
			CrossPct:            10,
		}),
		Iteration: 5 * time.Millisecond,
		Seed:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Committed == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if c.Stats().Committed == 0 {
		t.Fatal("no commits on the real runtime")
	}
}

func TestPublicAPIFailover(t *testing.T) {
	c, err := New(Config{
		Nodes:          4,
		WorkersPerNode: 2,
		Workload: YCSB(YCSBConfig{
			Partitions:          8,
			RecordsPerPartition: 128,
			CrossPct:            10,
		}),
		Iteration: 2 * time.Millisecond,
		Virtual:   true,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(20 * time.Millisecond)
	c.FailNode(3)
	c.Run(120 * time.Millisecond)
	if halted, reason := c.Halted(); halted {
		t.Fatalf("halted after a partial-replica failure: %s", reason)
	}
	before := c.Stats().Committed
	c.RecoverNode(3)
	c.Run(120 * time.Millisecond)
	if c.Stats().Committed <= before {
		t.Fatal("no progress after recovery")
	}
	c.Freeze()
	c.Run(30 * time.Millisecond)
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing workload must error")
	}
	if _, err := New(Config{Nodes: 1, Workload: YCSB(YCSBConfig{Partitions: 1, RecordsPerPartition: 8})}); err == nil {
		t.Fatal("1-node cluster must error")
	}
	w := YCSB(YCSBConfig{Partitions: 8, RecordsPerPartition: 8})
	if _, err := New(Config{Nodes: 2, FullReplicas: -1, Workload: w}); err == nil || err.Error() != "star: topology: no live full replica" {
		t.Fatalf("a cluster with no full replica: err %v, want the topology's refusal", err)
	}
}

func TestPublicAPITPCC(t *testing.T) {
	c, err := New(Config{
		Nodes:          2,
		WorkersPerNode: 2,
		Workload: TPCC(TPCCConfig{
			Warehouses:           4,
			Districts:            2,
			CustomersPerDistrict: 32,
			Items:                64,
		}),
		Iteration: 2 * time.Millisecond,
		Virtual:   true,
		Seed:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(40 * time.Millisecond)
	st := c.Stats()
	if st.Committed == 0 {
		t.Fatal("no TPC-C commits")
	}
	if st.ReplicationBytes == 0 {
		t.Fatal("no replication traffic recorded")
	}
}
