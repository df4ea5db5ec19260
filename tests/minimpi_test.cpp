#include "minimpi/comm.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "rtlib/dmatrix.hpp"

namespace otter::mpi {
namespace {

/// A switched-fabric profile with deterministic costs (no compute charging).
MachineProfile switched() {
  MachineProfile p = ideal(64);
  p.name = "switched_test";
  p.intra_latency = p.inter_latency = 1e-3;
  p.intra_bandwidth = p.inter_bandwidth = 1e6;  // 1 ms + 1 us/byte
  return p;
}

TEST(MiniMpi, SingleRankRuns) {
  RunResult r = run_spmd(ideal(), 1, [](Comm& c) {
    EXPECT_EQ(c.rank(), 0);
    EXPECT_EQ(c.size(), 1);
  });
  EXPECT_EQ(r.vtimes.size(), 1u);
}

TEST(MiniMpi, RankAndSizeAreCorrect) {
  constexpr int kP = 7;
  std::vector<int> seen(kP, 0);
  std::mutex mu;
  run_spmd(ideal(), kP, [&](Comm& c) {
    EXPECT_EQ(c.size(), kP);
    std::lock_guard<std::mutex> lock(mu);
    seen[c.rank()]++;
  });
  for (int r = 0; r < kP; ++r) EXPECT_EQ(seen[r], 1) << "rank " << r;
}

TEST(MiniMpi, TooManyRanksRejected) {
  MachineProfile p = meiko_cs2();
  EXPECT_THROW(run_spmd(p, 32, [](Comm&) {}), MpiError);
}

TEST(MiniMpi, PointToPointDeliversPayload) {
  run_spmd(ideal(), 2, [](Comm& c) {
    std::vector<double> data = {1.5, 2.5, 3.5};
    if (c.rank() == 0) {
      c.send(1, 7, data.data(), data.size() * sizeof(double));
    } else {
      std::vector<double> got(3);
      c.recv(0, 7, got.data(), got.size() * sizeof(double));
      EXPECT_EQ(got, data);
    }
  });
}

TEST(MiniMpi, MessagesMatchedByTag) {
  run_spmd(ideal(), 2, [](Comm& c) {
    if (c.rank() == 0) {
      c.send_scalar(1, 1, 100.0);
      c.send_scalar(1, 2, 200.0);
    } else {
      // Receive out of order: tag 2 first.
      EXPECT_DOUBLE_EQ(c.recv_scalar(0, 2), 200.0);
      EXPECT_DOUBLE_EQ(c.recv_scalar(0, 1), 100.0);
    }
  });
}

TEST(MiniMpi, SizeMismatchThrows) {
  EXPECT_THROW(run_spmd(ideal(), 2,
                        [](Comm& c) {
                          double v = 1;
                          if (c.rank() == 0) {
                            c.send(1, 0, &v, sizeof v);
                          } else {
                            double big[4];
                            c.recv(0, 0, big, sizeof big);
                          }
                        }),
               MpiError);
}

TEST(MiniMpi, P2PVirtualTimeMatchesModel) {
  MachineProfile p = switched();
  RunResult r = run_spmd(p, 2, [](Comm& c) {
    std::vector<double> buf(1000);  // 8000 bytes -> 8 ms wire + 1 ms latency
    if (c.rank() == 0) {
      c.send(1, 0, buf.data(), buf.size() * sizeof(double));
    } else {
      c.recv(0, 0, buf.data(), buf.size() * sizeof(double));
    }
  });
  // Receiver: latency 1 ms + 8000 B / 1e6 B/s = 9 ms.
  EXPECT_NEAR(r.vtimes[1], 0.009, 1e-9);
  // Sender is free immediately on a switched fabric.
  EXPECT_NEAR(r.vtimes[0], 0.0, 1e-9);
}

TEST(MiniMpi, SharedMediumChargesSenderFullWireTime) {
  MachineProfile p = switched();
  p.shared_medium = true;
  p.ranks_per_node = 1;
  RunResult r = run_spmd(p, 2, [](Comm& c) {
    std::vector<double> buf(1000);
    if (c.rank() == 0) {
      c.send(1, 0, buf.data(), buf.size() * sizeof(double));
    } else {
      c.recv(0, 0, buf.data(), buf.size() * sizeof(double));
    }
  });
  // On Ethernet the sender holds the wire: both clocks ~9 ms.
  EXPECT_NEAR(r.vtimes[0], 0.009, 1e-9);
  EXPECT_NEAR(r.vtimes[1], 0.009, 1e-9);
}

TEST(MiniMpi, SharedMediumSerializesBackToBackSends) {
  MachineProfile p = switched();
  p.shared_medium = true;
  p.ranks_per_node = 1;
  RunResult r = run_spmd(p, 3, [](Comm& c) {
    std::vector<double> buf(1000);
    if (c.rank() == 0) {
      c.send(1, 0, buf.data(), buf.size() * sizeof(double));
      c.send(2, 0, buf.data(), buf.size() * sizeof(double));
    } else {
      c.recv(0, 0, buf.data(), buf.size() * sizeof(double));
    }
  });
  // Second transfer starts only after the first releases the wire.
  EXPECT_NEAR(r.vtimes[1], 0.009, 1e-9);
  EXPECT_NEAR(r.vtimes[2], 0.018, 1e-9);
}

TEST(MiniMpi, SwitchedFabricPipelinesSends) {
  MachineProfile p = switched();
  RunResult r = run_spmd(p, 3, [](Comm& c) {
    std::vector<double> buf(1000);
    if (c.rank() == 0) {
      c.send(1, 0, buf.data(), buf.size() * sizeof(double));
      c.send(2, 0, buf.data(), buf.size() * sizeof(double));
    } else {
      c.recv(0, 0, buf.data(), buf.size() * sizeof(double));
    }
  });
  // Transfers overlap; both receivers finish at ~9 ms.
  EXPECT_NEAR(r.vtimes[1], 0.009, 1e-9);
  EXPECT_NEAR(r.vtimes[2], 0.009, 1e-9);
}

TEST(MiniMpi, RecvClockNeverMovesBackwards) {
  MachineProfile p = switched();
  RunResult r = run_spmd(p, 2, [](Comm& c) {
    if (c.rank() == 0) {
      c.send_scalar(1, 0, 1.0);
    } else {
      c.charge(10.0);  // receiver is already far ahead
      (void)c.recv_scalar(0, 0);
      EXPECT_GE(c.vtime(), 10.0);
    }
  });
  EXPECT_GE(r.vtimes[1], 10.0);
}

TEST(MiniMpi, BarrierSynchronizesVirtualClocks) {
  MachineProfile p = switched();
  RunResult r = run_spmd(p, 4, [](Comm& c) {
    c.charge(static_cast<double>(c.rank()));  // clocks 0..3
    c.barrier();
  });
  // Everyone must end at >= the max pre-barrier clock.
  for (double t : r.vtimes) EXPECT_GE(t, 3.0);
}

TEST(MiniMpi, BcastDeliversFromNonzeroRoot) {
  for (int p : {2, 3, 4, 8}) {
    run_spmd(ideal(), p, [p](Comm& c) {
      int root = p - 1;
      double v = c.rank() == root ? 42.0 : 0.0;
      v = c.bcast_scalar(v, root);
      EXPECT_DOUBLE_EQ(v, 42.0) << "P=" << p << " rank=" << c.rank();
    });
  }
}

TEST(MiniMpi, BcastArrayPayload) {
  run_spmd(ideal(), 5, [](Comm& c) {
    std::vector<double> buf(64);
    if (c.rank() == 0) std::iota(buf.begin(), buf.end(), 0.0);
    c.bcast(buf.data(), buf.size() * sizeof(double), 0);
    EXPECT_DOUBLE_EQ(buf[63], 63.0);
  });
}

TEST(MiniMpi, BcastCostGrowsLogarithmically) {
  // On a switched fabric a binomial broadcast of m bytes costs
  // ~ceil(log2 P) * (L + m/B) along the deepest path.
  MachineProfile p = switched();
  auto max_time = [&](int ranks) {
    RunResult r = run_spmd(p, ranks, [](Comm& c) {
      std::vector<double> buf(1000);
      c.bcast(buf.data(), buf.size() * sizeof(double), 0);
    });
    return r.max_vtime();
  };
  double t4 = max_time(4);
  double t16 = max_time(16);
  EXPECT_NEAR(t4, 2 * 0.009, 1e-6);
  EXPECT_NEAR(t16, 4 * 0.009, 1e-6);
}

TEST(MiniMpi, ReduceSumToRoot) {
  for (int p : {1, 2, 3, 5, 8}) {
    run_spmd(ideal(), p, [p](Comm& c) {
      double v = static_cast<double>(c.rank() + 1);
      double out = -1;
      c.reduce(&v, &out, 1, Comm::ReduceOp::Sum, 0);
      if (c.rank() == 0) {
        EXPECT_DOUBLE_EQ(out, p * (p + 1) / 2.0) << "P=" << p;
      }
    });
  }
}

TEST(MiniMpi, ReduceMinMax) {
  run_spmd(ideal(), 6, [](Comm& c) {
    double v = static_cast<double>((c.rank() * 7) % 6);
    EXPECT_DOUBLE_EQ(c.allreduce_scalar(v, Comm::ReduceOp::Min), 0.0);
    EXPECT_DOUBLE_EQ(c.allreduce_scalar(v, Comm::ReduceOp::Max), 5.0);
  });
}

TEST(MiniMpi, ReduceVectorElementwise) {
  run_spmd(ideal(), 4, [](Comm& c) {
    std::vector<double> in = {1.0 * c.rank(), 2.0 * c.rank()};
    std::vector<double> out(2);
    c.allreduce(in.data(), out.data(), 2, Comm::ReduceOp::Sum);
    EXPECT_DOUBLE_EQ(out[0], 6.0);
    EXPECT_DOUBLE_EQ(out[1], 12.0);
  });
}

TEST(MiniMpi, AllgathervConcatenatesInRankOrder) {
  for (int p : {1, 2, 3, 4, 7}) {
    run_spmd(ideal(), p, [p](Comm& c) {
      // Rank r contributes r+1 elements all equal to r.
      std::vector<size_t> counts(p);
      size_t total = 0;
      for (int r = 0; r < p; ++r) {
        counts[r] = static_cast<size_t>(r + 1);
        total += counts[r];
      }
      std::vector<double> mine(counts[c.rank()],
                               static_cast<double>(c.rank()));
      std::vector<double> all(total, -1.0);
      c.allgatherv(mine.data(), all.data(), counts);
      size_t off = 0;
      for (int r = 0; r < p; ++r) {
        for (size_t i = 0; i < counts[r]; ++i) {
          ASSERT_DOUBLE_EQ(all[off + i], static_cast<double>(r))
              << "P=" << p << " rank=" << c.rank() << " r=" << r;
        }
        off += counts[r];
      }
    });
  }
}

TEST(MiniMpi, GathervCollectsToRoot) {
  run_spmd(ideal(), 4, [](Comm& c) {
    std::vector<size_t> counts = {2, 2, 2, 2};
    std::vector<double> mine = {c.rank() * 10.0, c.rank() * 10.0 + 1};
    std::vector<double> all(8, -1);
    c.gatherv(mine.data(), all.data(), counts, 0);
    if (c.rank() == 0) {
      EXPECT_DOUBLE_EQ(all[0], 0.0);
      EXPECT_DOUBLE_EQ(all[5], 21.0);
      EXPECT_DOUBLE_EQ(all[7], 31.0);
    }
  });
}

TEST(MiniMpi, ScattervDistributesFromRoot) {
  run_spmd(ideal(), 3, [](Comm& c) {
    std::vector<size_t> counts = {1, 2, 3};
    std::vector<double> all = {0, 10, 11, 20, 21, 22};
    std::vector<double> mine(counts[c.rank()], -1);
    c.scatterv(c.rank() == 0 ? all.data() : nullptr, mine.data(), counts, 0);
    EXPECT_DOUBLE_EQ(mine[0], c.rank() * 10.0);
    if (c.rank() == 2) {
      EXPECT_DOUBLE_EQ(mine[2], 22.0);
    }
  });
}

TEST(MiniMpi, AlltoallvExchangesBlocks) {
  run_spmd(ideal(), 4, [](Comm& c) {
    // Rank r sends {r*10 + d} to rank d.
    std::vector<std::vector<double>> send(4);
    for (int d = 0; d < 4; ++d) {
      send[d] = {c.rank() * 10.0 + d};
    }
    std::vector<std::vector<double>> recv;
    c.alltoallv(send, recv);
    for (int s = 0; s < 4; ++s) {
      ASSERT_EQ(recv[s].size(), 1u);
      EXPECT_DOUBLE_EQ(recv[s][0], s * 10.0 + c.rank());
    }
  });
}

TEST(MiniMpi, AlltoallvEmptyBlocks) {
  run_spmd(ideal(), 3, [](Comm& c) {
    std::vector<std::vector<double>> send(3);  // everything empty
    send[(c.rank() + 1) % 3] = {1.0, 2.0};
    std::vector<std::vector<double>> recv;
    c.alltoallv(send, recv);
    EXPECT_EQ(recv[(c.rank() + 2) % 3].size(), 2u);
    EXPECT_EQ(recv[c.rank()].size(), 0u);
  });
}

// alltoallv hands each block over instead of copying it: the receiver gets
// the very buffer the sender filled.
TEST(MiniMpi, AlltoallvMovesBlocksWithoutCopying) {
  constexpr int kP = 3;
  std::vector<std::vector<const double*>> sent(kP,
                                               std::vector<const double*>(kP));
  std::vector<std::vector<const double*>> got(kP,
                                              std::vector<const double*>(kP));
  run_spmd(ideal(), kP, [&](Comm& c) {
    std::vector<std::vector<double>> send(kP);
    for (int d = 0; d < kP; ++d) {
      send[d].assign(64, c.rank() * 100.0 + d);
      sent[c.rank()][d] = send[d].data();
    }
    std::vector<std::vector<double>> recv;
    c.alltoallv(std::move(send), recv);
    for (int s = 0; s < kP; ++s) {
      ASSERT_EQ(recv[s].size(), 64u);
      EXPECT_DOUBLE_EQ(recv[s][63], s * 100.0 + c.rank());
      got[c.rank()][s] = recv[s].data();
    }
  });
  for (int s = 0; s < kP; ++s) {
    for (int d = 0; d < kP; ++d) EXPECT_EQ(got[d][s], sent[s][d]);
  }
}

TEST(MiniMpi, VirtualTimesAreDeterministic) {
  // With cpu_scale = 0 the entire schedule is a pure function of the
  // communication pattern — repeated runs give identical virtual times.
  MachineProfile p = switched();
  auto once = [&] {
    return run_spmd(p, 8, [](Comm& c) {
      std::vector<double> buf(256, 1.0);
      c.bcast(buf.data(), buf.size() * sizeof(double), 0);
      double s = c.allreduce_scalar(static_cast<double>(c.rank()),
                                    Comm::ReduceOp::Sum);
      c.charge(s * 1e-6);
      c.barrier();
    }).vtimes;
  };
  EXPECT_EQ(once(), once());
}

// A fresh 32 MiB payload is first touched inside the body, so its page
// faults land in the rank's count whatever page size backs it.
TEST(MiniMpi, MinorFaultsAreCountedPerRank) {
  for (int np : {1, 3}) {
    RunResult r = run_spmd(ideal(), np, [](Comm& c) {
      if (c.rank() == 0) rt::DMat big(c, 2048, 2048);
    });
    ASSERT_EQ(r.minor_faults.size(), static_cast<size_t>(np));
    EXPECT_GT(r.minor_faults[0], 0u);
  }
}

TEST(MiniMpi, ExceptionInRankPropagates) {
  EXPECT_THROW(run_spmd(ideal(), 3,
                        [](Comm& c) {
                          if (c.rank() == 1) throw std::runtime_error("rank died");
                          // Others must not deadlock: no communication here.
                        }),
               std::runtime_error);
}

TEST(MiniMpi, ClusterProfileTopology) {
  MachineProfile p = sparc20_cluster();
  EXPECT_TRUE(p.same_node(0, 3));
  EXPECT_FALSE(p.same_node(3, 4));
  EXPECT_LT(p.latency(0, 1), p.latency(0, 4));
  EXPECT_GT(p.bandwidth(0, 1), p.bandwidth(0, 4));
}

TEST(MiniMpi, ProfileLookupByName) {
  EXPECT_EQ(profile_by_name("meiko_cs2").name, "meiko_cs2");
  EXPECT_EQ(profile_by_name("sparc20_cluster").ranks_per_node, 4);
  EXPECT_EQ(profile_by_name("enterprise_smp").max_ranks, 8);
  EXPECT_EQ(profile_by_name("nope").name, "ideal");
}

}  // namespace
}  // namespace otter::mpi
