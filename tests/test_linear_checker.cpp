// Linearizability checker (src/check/linear.*) unit tests: hand-built legal
// and illegal histories exercise the register semantics and the Wing–Gong
// search directly, a deliberately broken KV store variant (skipped
// unlock-ordering flush) proves end-to-end detection, and the campaign's
// proof shows the whole catch → minimize → write → replay pipeline holds.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "check/kvfuzz.hpp"
#include "check/linear.hpp"

namespace {

using namespace casper;
using check::LinearChecker;
using kv::KvEvent;

KvEvent ev(std::uint64_t key, KvEvent::Kind kind, std::int64_t arg1,
           std::int64_t arg2, std::int64_t result, bool ok, sim::Time inv,
           sim::Time resp, int client = 0) {
  KvEvent e;
  e.key = key;
  e.kind = kind;
  e.arg1 = arg1;
  e.arg2 = arg2;
  e.result = result;
  e.ok = ok;
  e.client = client;
  e.inv = inv;
  e.resp = resp;
  return e;
}

KvEvent get(std::uint64_t k, std::int64_t res, sim::Time i, sim::Time r,
            int c = 0) {
  return ev(k, KvEvent::Kind::Get, 0, 0, res, true, i, r, c);
}
KvEvent put(std::uint64_t k, std::int64_t v, sim::Time i, sim::Time r,
            int c = 0, bool ok = true) {
  return ev(k, KvEvent::Kind::Put, v, 0, 0, ok, i, r, c);
}
KvEvent cas(std::uint64_t k, std::int64_t exp, std::int64_t des,
            std::int64_t old, bool ok, sim::Time i, sim::Time r, int c = 0) {
  return ev(k, KvEvent::Kind::CasUpd, exp, des, old, ok, i, r, c);
}

// LinearChecker is immovable (mutex + atomics), so tests fill one in place.
template <typename... Es>
void record_all(LinearChecker& ck, const Es&... es) {
  (ck.record(es), ...);
}

template <typename... Es>
bool clean_history(const Es&... es) {
  LinearChecker ck;
  record_all(ck, es...);
  return ck.clean();
}

template <typename... Es>
std::size_t violation_count(const Es&... es) {
  LinearChecker ck;
  record_all(ck, es...);
  return ck.check().size();
}

// --- legal histories -------------------------------------------------------

TEST(LinearChecker, EmptyAndSequentialHistoriesAreClean) {
  LinearChecker empty;
  EXPECT_TRUE(empty.clean());
  EXPECT_EQ(empty.ops_recorded(), 0u);

  LinearChecker ck;
  record_all(ck,
             get(1, 0, 0, 5),    // key absent
             put(1, 7, 10, 15),  // install 7
             get(1, 7, 20, 25),  // read it back
             cas(1, 7, 9, 7, true, 30, 35), get(1, 9, 40, 45),
             // stale expected: fails, reports 9
             cas(1, 7, 11, 9, false, 50, 55), get(1, 9, 60, 65));
  EXPECT_TRUE(ck.clean()) << ck.check().front().diag;
}

TEST(LinearChecker, OverlappingOpsMayCommute) {
  // GET [0,20] overlaps PUT(1) [5,15]: reading 0 is legal (GET linearizes
  // first) and so is reading 1 (PUT first) — both orders must be accepted.
  EXPECT_TRUE(clean_history(get(1, 0, 0, 20, 0), put(1, 1, 5, 15, 1)));
  EXPECT_TRUE(clean_history(get(1, 1, 0, 20, 0), put(1, 1, 5, 15, 1)));
  // Two overlapping CAS ops both expecting 7 — only the winner succeeds;
  // the loser must observe the winner's value.
  EXPECT_TRUE(clean_history(put(1, 7, 0, 5),
                            cas(1, 7, 8, 7, true, 10, 30, 0),
                            cas(1, 7, 9, 8, false, 12, 28, 1)));
}

TEST(LinearChecker, PerKeyIsolation) {
  // An illegal value on key 2 must not implicate key 1's clean history.
  LinearChecker ck;
  record_all(ck, put(1, 5, 0, 5), get(1, 5, 10, 15), put(2, 5, 0, 5),
             get(2, 6, 10, 15));
  const auto& vs = ck.check();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].key, 2u);
}

// --- illegal histories -----------------------------------------------------

TEST(LinearChecker, StaleReadIsAViolation) {
  // PUT(1) then PUT(2) strictly before a GET that still returns 1.
  LinearChecker ck;
  record_all(ck, put(1, 1, 0, 10), put(1, 2, 20, 30), get(1, 1, 40, 50));
  const auto& vs = ck.check();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].key, 1u);
  EXPECT_NE(vs[0].diag.find("no legal linearization"), std::string::npos);
}

TEST(LinearChecker, LostUpdateIsAViolation) {
  // A successful CAS 1->2 whose effect later vanishes.
  EXPECT_EQ(violation_count(put(1, 1, 0, 10), cas(1, 1, 2, 1, true, 20, 30),
                            get(1, 1, 40, 50)),
            1u);
}

TEST(LinearChecker, DoubleCasSuccessIsAViolation) {
  // Two CAS ops expecting the same old value cannot both succeed.
  EXPECT_EQ(violation_count(put(1, 1, 0, 10),
                            cas(1, 1, 2, 1, true, 20, 30, 0),
                            cas(1, 1, 3, 1, true, 40, 50, 1)),
            1u);
}

TEST(LinearChecker, OverflowPutWhileKeyPresentIsAViolation) {
  // PUT !ok claims the bucket had no slot for the key — impossible while
  // the key is present.
  EXPECT_EQ(violation_count(put(1, 1, 0, 10),
                            put(1, 2, 20, 30, 0, /*ok=*/false),
                            get(1, 1, 40, 50)),
            1u);
}

TEST(LinearChecker, GetFromAbsentKeyMustReturnZero) {
  EXPECT_FALSE(clean_history(get(1, 3, 0, 10)));
  EXPECT_FALSE(clean_history(cas(1, 3, 4, 3, true, 0, 10)));  // absent key
}

// --- determinism of the verdict machinery ---------------------------------

TEST(LinearChecker, HistoryHashIsArrivalOrderInvariant) {
  const KvEvent a = put(1, 1, 0, 10, 0);
  const KvEvent b = get(1, 1, 20, 30, 1);
  const KvEvent c = put(2, 5, 0, 10, 1);
  LinearChecker fwd, rev;
  record_all(fwd, a, b, c);
  record_all(rev, c, b, a);
  EXPECT_EQ(fwd.history_hash(), rev.history_hash());
  EXPECT_TRUE(fwd.clean());
  EXPECT_TRUE(rev.clean());
}

TEST(LinearChecker, ResetClearsEverything) {
  LinearChecker ck;
  record_all(ck, get(1, 3, 0, 10));
  EXPECT_FALSE(ck.clean());
  ck.reset();
  EXPECT_TRUE(ck.clean());
  EXPECT_EQ(ck.ops_recorded(), 0u);
}

// --- end-to-end: the broken store variant must be caught ------------------

TEST(LinearCheckerEndToEnd, KvProofCatchesPlantedBugAndReproReplays) {
  // The proof plants KvConfig::skip_unlock_flush (value PUT unordered
  // w.r.t. the lock release) under a delay-heavy network, requires the
  // checker to flag the stale read, minimizes the failing op prefix, writes
  // the repro file, re-parses it, and replays it. Any weak link fails it.
  check::CampaignOptions opt;
  opt.base_seed = 1;
  opt.schedules = 2;
  opt.repro_dir = ::testing::TempDir();
  const check::ProofResult pr =
      check::Campaign(opt).prove(check::Bug::KvSkipUnlockFlush);
  EXPECT_TRUE(pr.ok) << pr.error;
}

}  // namespace
