// Replay benchmark for the speculative query processing engine.
//
//   specbench --workload <fig4-disk|fig4-memory|fig7-shared> --seed <n>
//             --seconds <s> --trace <0|1> [--spans-out <file>]
//
// Every run generates the TPC-H subset from the seed (data seed = n)
// and always the same user sessions (trace seed 49, the experiment
// benches' default), so each seed replays one fixed session mix over
// different data; varying the sessions instead moves the simulated
// means by ~25% from seed to seed. It then replays the sessions through
// the harness's public experiment functions (RunSingleUserExperiment
// for the fig4 workloads, RunMultiUserExperiment for fig7-shared) in
// whole rounds until `--seconds` of replay have passed. Each final
// query's row count is checked against the reference evaluator
// (reference.h).
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs one untimed
// round of the experiment function, then replays the same sessions
// call by call, timing each call the benchmark makes into a layer, and
// prints the per-layer metrics. The last line of standard output is a
// JSON object {"correct", "attempted", "failed", "metrics"}; the exit
// code is 0 only when every check passed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "harness/experiment.h"
#include "layer_trace.h"
#include "reference.h"
#include "sim/sim_server.h"
#include "speculation/engine.h"
#include "workload/datagen.h"

using namespace sqp;
using specbench::NowNs;
using specbench::Quantile;
using specbench::SpanLog;

namespace {

// Sessions replayed by every run, whatever the data seed.
constexpr uint64_t kTraceSeed = 49;
// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
// Cold-pool page-fetch passes per traced run; fetch_miss_us is the
// median of the per-pass means.
constexpr int kFetchPasses = 5;
// Relative tolerance of the traced replay's per-query simulated
// seconds against the experiment function's (CostScope drift).
constexpr double kSimTolerance = 1e-9;

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
  // Self-test hook: shift every reference count by one so that every
  // check fails.
  bool corrupt_reference = false;
};

struct Workload {
  std::string name;
  bool multi_user = false;
  size_t group_size = 3;
  ExperimentConfig cfg;
};

std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  w.cfg.scale = tpch::Scale::kSmall;
  w.cfg.data_seed = seed;
  w.cfg.trace_seed = kTraceSeed;
  w.cfg.exec_threads = 1;
  w.cfg.storage_nodes = 1;
  if (name == "fig4-disk") {
    w.cfg.num_users = 3;
    w.cfg.buffer_pool_pages = 180;  // ~1/3 of the base-table pages
  } else if (name == "fig4-memory") {
    w.cfg.num_users = 3;
    w.cfg.buffer_pool_pages = 4096;  // every page fits
  } else if (name == "fig7-shared") {
    w.multi_user = true;
    w.cfg.num_users = 6;
    w.cfg.buffer_pool_pages = 540;
    w.cfg.storage_nodes = 2;
    w.cfg.engine.speculator.space.join_materializations = false;
  } else {
    return std::nullopt;
  }
  return w;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--spans-out") {
      args->spans_out = value;
    } else if (key == "--corrupt-reference") {
      args->corrupt_reference = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// ------------------------------------------------------------ set-up

struct Setup {
  std::unique_ptr<Database> db;
  std::vector<Trace> traces;
  double load_s = 0;
  double generate_s = 0;
};

Result<Setup> RunSetup(const ExperimentConfig& cfg, SpanLog* log) {
  Setup setup;
  int64_t t0 = NowNs();
  auto db = log->Time("workload", "BuildDatabase",
                      [&] { return BuildDatabase(cfg); });
  int64_t t1 = NowNs();
  if (!db.ok()) return db.status();
  setup.db = std::move(*db);
  setup.traces =
      log->Time("trace", "BuildTraces", [&] { return BuildTraces(cfg); });
  setup.load_s = Seconds(t1 - t0);
  setup.generate_s = Seconds(NowNs() - t1);
  return setup;
}

// ------------------------------------------------------------ replays

struct Outcome {
  std::vector<QueryRecord> normal;
  std::vector<QueryRecord> speculative;
  size_t issued = 0;
  size_t completed = 0;
};

void AddEngineStats(const std::vector<EngineStats>& stats, Outcome* out) {
  for (const auto& s : stats) {
    out->issued += s.manipulations_issued;
    out->completed += s.manipulations_completed;
  }
}

Result<Outcome> RunExperiment(const Workload& w) {
  Outcome out;
  if (w.multi_user) {
    auto r = RunMultiUserExperiment(w.cfg, w.group_size);
    if (!r.ok()) return r.status();
    out.normal = std::move(r->normal);
    out.speculative = std::move(r->speculative);
    AddEngineStats(r->engine_stats, &out);
  } else {
    auto r = RunSingleUserExperiment(w.cfg);
    if (!r.ok()) return r.status();
    out.normal = std::move(r->normal);
    out.speculative = std::move(r->speculative);
    AddEngineStats(r->engine_stats, &out);
  }
  return out;
}

// Call-by-call single-user replay: the loop of TraceReplayer::Replay
// (without tracer or timeline), with each layer call in a span.
Status TracedSessionReplay(Database* db, const Trace& trace, bool speculation,
                           const SpeculationEngineOptions& engine_opts,
                           const std::vector<Trace>* pretrain, SpanLog* log,
                           Counter* exec_rows, uint64_t* rows_in_exec,
                           Outcome* out) {
  const int replay = log->NextReplay();
  const int session = static_cast<int>(trace.user_id);
  log->SetRequest({replay, session, -1});
  Status st = log->Time("db", "ColdStart", [&] { return db->ColdStart(); });
  if (!st.ok()) return st;
  SimServer server(db->storage().node_count());
  db->attribution().SetSession("user" + std::to_string(trace.user_id));
  SpeculationEngineOptions opts = engine_opts;
  opts.enabled = speculation;
  auto engine = log->Time("speculation", "Construct", [&] {
    return std::make_unique<SpeculationEngine>(db, &server, opts);
  });
  if (speculation && pretrain != nullptr) {
    log->Time("speculation", "PretrainLearner",
              [&] { engine->PretrainLearner(*pretrain); });
  }
  std::vector<QueryRecord>& records =
      speculation ? out->speculative : out->normal;
  double exec_offset = 0;
  size_t query_index = 0;
  for (const auto& event : trace.events) {
    log->SetRequest({replay, session, static_cast<int>(query_index)});
    double sim_time = event.timestamp + exec_offset;
    log->Time("sim", "AdvanceTo", [&] { server.AdvanceTo(sim_time); });
    if (event.type != TraceEventType::kGo) {
      st = log->Time("speculation",
                     speculation ? "OnUserEvent" : "OnUserEvent(normal)",
                     [&] { return engine->OnUserEvent(event, sim_time); });
      if (!st.ok()) return st;
      continue;
    }
    QueryGraph final_query = engine->partial();
    auto submit = log->Time("speculation", "OnGo",
                            [&] { return engine->OnGo(sim_time); });
    if (!submit.ok()) return submit.status();
    if (*submit > sim_time) {
      log->Time("sim", "AdvanceTo", [&] { server.AdvanceTo(*submit); });
      st = log->Time("speculation", "ResolveWait",
                     [&] { return engine->ResolveWait(*submit); });
      if (!st.ok()) return st;
    }
    ExecuteOptions exec;
    exec.view_mode =
        speculation ? engine->final_view_mode() : ViewMode::kCostBased;
    auto plan = log->Time("optimizer", "Plan", [&] {
      return db->planner().Plan(final_query, &db->views(), exec.view_mode);
    });
    if (!plan.ok()) return plan.status();
    uint64_t rows_before = exec_rows->value();
    auto result = log->Time(
        "exec", speculation ? "Execute" : "Execute(normal)",
        [&] { return db->Execute(final_query, exec); });
    *rows_in_exec += exec_rows->value() - rows_before;
    if (!result.ok()) return result.status();
    SimServer::JobId job = log->Time("sim", "Submit", [&] {
      return server.Submit(result->seconds,
                           db->storage().read_cursor() % server.lanes());
    });
    double done = log->Time("sim", "RunUntilComplete",
                            [&] { return server.RunUntilComplete(job); });
    double duration = done - sim_time;
    exec_offset += duration;
    st = log->Time("speculation", "OnQueryResult",
                   [&] { return engine->OnQueryResult(done); });
    if (!st.ok()) return st;
    QueryRecord record;
    record.index = query_index++;
    record.user_id = trace.user_id;
    record.query = std::move(final_query);
    record.seconds = duration;
    record.row_count = result->row_count;
    record.views_used = result->views_used;
    record.est_rows = result->est_rows;
    records.push_back(std::move(record));
  }
  log->SetRequest({replay, session, -1});
  st = log->Time("speculation", "Shutdown", [&] { return engine->Shutdown(); });
  if (!st.ok()) return st;
  if (speculation) AddEngineStats({engine->stats()}, out);
  db->attribution().SetSession("");
  return Status::OK();
}

// RunSingleUserExperiment's loop: each trace normal, then speculative
// with leave-one-out pretraining.
Status TracedSingleUser(const Workload& w, Database* db,
                        const std::vector<Trace>& traces, SpanLog* log,
                        Counter* exec_rows, uint64_t* rows_in_exec,
                        Outcome* out) {
  for (size_t t = 0; t < traces.size(); t++) {
    SQP_RETURN_IF_ERROR(TracedSessionReplay(db, traces[t], false,
                                            w.cfg.engine, nullptr, log,
                                            exec_rows, rows_in_exec, out));
    std::vector<Trace> history;
    for (size_t o = 0; o < traces.size(); o++) {
      if (o != t) history.push_back(traces[o]);
    }
    SQP_RETURN_IF_ERROR(TracedSessionReplay(db, traces[t], true, w.cfg.engine,
                                            &history, log, exec_rows,
                                            rows_in_exec, out));
  }
  return Status::OK();
}

// Call-by-call group replay: the loop of MultiUserReplayer::Replay
// (without tracer or timeline), with each layer call in a span.
Status TracedGroupReplay(Database* db, const std::vector<Trace>& traces,
                         bool speculation,
                         const SpeculationEngineOptions& engine_opts,
                         SpanLog* log, Counter* exec_rows,
                         uint64_t* rows_in_exec, Outcome* out) {
  const int replay = log->NextReplay();
  auto request = [&](size_t u, int query) {
    log->SetRequest({replay, static_cast<int>(traces[u].user_id), query});
  };
  log->SetRequest({replay, -1, -1});
  Status st = log->Time("db", "ColdStart", [&] { return db->ColdStart(); });
  if (!st.ok()) return st;
  SimServer server(db->storage().node_count());
  const size_t n = traces.size();
  struct UserState {
    std::unique_ptr<SpeculationEngine> engine;
    size_t next_event = 0;
    double exec_offset = 0;
    bool waiting = false;
    SimServer::JobId job = 0;
    double go_time = 0;
    QueryRecord pending;
    size_t query_index = 0;
  };
  std::vector<UserState> users(n);
  std::vector<std::vector<QueryRecord>> per_user(n);
  for (size_t u = 0; u < n; u++) {
    SpeculationEngineOptions opts = engine_opts;
    opts.enabled = speculation;
    opts.table_prefix = "spec_u" + std::to_string(u) + "_mv_";
    opts.go_policy = GoPolicy::kCancelIncomplete;
    request(u, -1);
    users[u].engine = log->Time("speculation", "Construct", [&] {
      return std::make_unique<SpeculationEngine>(db, &server, opts);
    });
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (;;) {
    log->SetRequest({replay, -1, -1});
    double t_event = kInf;
    size_t who = n;
    for (size_t u = 0; u < n; u++) {
      UserState& user = users[u];
      if (user.waiting || user.next_event >= traces[u].events.size()) {
        continue;
      }
      double t = traces[u].events[user.next_event].timestamp +
                 user.exec_offset;
      if (t < t_event) {
        t_event = t;
        who = u;
      }
    }
    double t_completion = log->Time(
        "sim", "NextCompletionTime", [&] { return server.NextCompletionTime(); });
    bool any_waiting = false;
    for (const auto& user : users) any_waiting |= user.waiting;
    if (t_event == kInf && !any_waiting) break;

    if (t_completion <= t_event) {
      log->Time("sim", "AdvanceTo", [&] { server.AdvanceTo(t_completion); });
      for (size_t u = 0; u < n; u++) {
        UserState& user = users[u];
        if (!user.waiting) continue;
        request(u, static_cast<int>(user.pending.index));
        bool complete = log->Time("sim", "IsComplete",
                                  [&] { return server.IsComplete(user.job); });
        if (!complete) continue;
        db->attribution().SetSession("user" +
                                     std::to_string(traces[u].user_id));
        double done = log->Time("sim", "CompletionTime", [&] {
          return server.CompletionTime(user.job);
        });
        double duration = done - user.go_time;
        user.exec_offset += duration;
        user.pending.seconds = duration;
        per_user[u].push_back(std::move(user.pending));
        user.waiting = false;
        st = log->Time("speculation", "OnQueryResult",
                       [&] { return user.engine->OnQueryResult(done); });
        if (!st.ok()) return st;
      }
      continue;
    }

    UserState& user = users[who];
    request(who, static_cast<int>(user.query_index));
    const TraceEvent& event = traces[who].events[user.next_event++];
    double sim_time = event.timestamp + user.exec_offset;
    db->attribution().SetSession("user" + std::to_string(traces[who].user_id));
    log->Time("sim", "AdvanceTo", [&] { server.AdvanceTo(sim_time); });
    if (event.type != TraceEventType::kGo) {
      st = log->Time("speculation",
                     speculation ? "OnUserEvent" : "OnUserEvent(normal)",
                     [&] { return user.engine->OnUserEvent(event, sim_time); });
      if (!st.ok()) return st;
      continue;
    }
    QueryGraph final_query = user.engine->partial();
    auto submit = log->Time("speculation", "OnGo",
                            [&] { return user.engine->OnGo(sim_time); });
    if (!submit.ok()) return submit.status();
    ExecuteOptions exec;
    exec.view_mode =
        speculation ? user.engine->final_view_mode() : ViewMode::kCostBased;
    auto plan = log->Time("optimizer", "Plan", [&] {
      return db->planner().Plan(final_query, &db->views(), exec.view_mode);
    });
    if (!plan.ok()) return plan.status();
    uint64_t rows_before = exec_rows->value();
    auto result = log->Time(
        "exec", speculation ? "Execute" : "Execute(normal)",
        [&] { return db->Execute(final_query, exec); });
    *rows_in_exec += exec_rows->value() - rows_before;
    if (!result.ok()) return result.status();
    user.job = log->Time("sim", "Submit", [&] {
      return server.Submit(result->seconds,
                           db->storage().read_cursor() % server.lanes());
    });
    user.go_time = sim_time;
    user.waiting = true;
    user.pending = QueryRecord{};
    user.pending.index = user.query_index++;
    user.pending.user_id = traces[who].user_id;
    user.pending.query = std::move(final_query);
    user.pending.row_count = result->row_count;
    user.pending.views_used = result->views_used;
    user.pending.est_rows = result->est_rows;
  }
  db->attribution().SetSession("");
  std::vector<EngineStats> stats;
  for (size_t u = 0; u < n; u++) {
    request(u, -1);
    st = log->Time("speculation", "Shutdown",
                   [&] { return users[u].engine->Shutdown(); });
    if (!st.ok()) return st;
    stats.push_back(users[u].engine->stats());
  }
  std::vector<QueryRecord>& records =
      speculation ? out->speculative : out->normal;
  for (auto& user_records : per_user) {
    for (auto& r : user_records) records.push_back(std::move(r));
  }
  if (speculation) AddEngineStats(stats, out);
  return Status::OK();
}

// RunMultiUserExperiment's loop: each group normal, then speculative.
Status TracedMultiUser(const Workload& w, Database* db,
                       const std::vector<Trace>& traces, SpanLog* log,
                       Counter* exec_rows, uint64_t* rows_in_exec,
                       Outcome* out) {
  for (size_t start = 0; start + w.group_size <= traces.size();
       start += w.group_size) {
    std::vector<Trace> group(traces.begin() + start,
                             traces.begin() + start + w.group_size);
    SQP_RETURN_IF_ERROR(TracedGroupReplay(db, group, false, w.cfg.engine, log,
                                          exec_rows, rows_in_exec, out));
    SQP_RETURN_IF_ERROR(TracedGroupReplay(db, group, true, w.cfg.engine, log,
                                          exec_rows, rows_in_exec, out));
  }
  return Status::OK();
}

// ------------------------------------------------------------ checks

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;

  void Problem(const std::string& what) {
    if (problems.size() < 20) problems.push_back(what);
  }
};

class ReferenceCounts {
 public:
  ReferenceCounts(const specbench::RefDatabase* ref, uint64_t shift)
      : ref_(ref), shift_(shift) {}

  Result<uint64_t> Count(const QueryGraph& q) {
    std::string key = q.CanonicalKey();
    auto it = cache_.find(key);
    if (it == cache_.end()) it = cache_.emplace(key, ref_->Count(q)).first;
    if (!it->second.ok()) return it->second;
    return *it->second + shift_;
  }

 private:
  const specbench::RefDatabase* ref_;
  uint64_t shift_;
  std::map<std::string, Result<uint64_t>> cache_;
};

size_t GoEvents(const Workload& w, const std::vector<Trace>& traces) {
  size_t replayed = traces.size();
  if (w.multi_user) replayed -= replayed % w.group_size;
  size_t go = 0;
  for (size_t t = 0; t < replayed; t++) {
    for (const auto& e : traces[t].events) {
      if (e.type == TraceEventType::kGo) go++;
    }
  }
  return go;
}

// Check one round: every final query (normal and speculative) is an
// operation. A query fails when its row count differs from the
// reference count or from its counterpart in the other mode; when a
// round-level property fails (query count against GO events, completed
// against issued manipulations, base-table cardinalities) every query
// of the round fails.
void CheckOutcome(const Workload& w, const Outcome& o,
                  const std::vector<Trace>& traces, bool data_ok,
                  ReferenceCounts* ref, Tally* tally) {
  const size_t ops = o.normal.size() + o.speculative.size();
  tally->attempted += ops;
  bool round_ok = data_ok;
  size_t go = GoEvents(w, traces);
  if (o.normal.size() != go || o.speculative.size() != go) {
    tally->Problem("final queries " + std::to_string(o.normal.size()) + "/" +
                   std::to_string(o.speculative.size()) + " != GO events " +
                   std::to_string(go));
    round_ok = false;
  }
  if (o.completed > o.issued) {
    tally->Problem("completed manipulations exceed issued");
    round_ok = false;
  }
  if (!round_ok) {
    tally->failed += ops;
    return;
  }
  for (size_t i = 0; i < go; i++) {
    const QueryRecord& n = o.normal[i];
    const QueryRecord& s = o.speculative[i];
    auto expect = ref->Count(n.query);
    bool n_ok = expect.ok() && n.row_count == *expect;
    bool s_ok = expect.ok() && s.row_count == *expect &&
                s.row_count == n.row_count &&
                s.query.CanonicalKey() == n.query.CanonicalKey();
    if (!n_ok || !s_ok) {
      tally->Problem("query " + std::to_string(i) + " rows normal " +
                     std::to_string(n.row_count) + " speculative " +
                     std::to_string(s.row_count) + " reference " +
                     (expect.ok() ? std::to_string(*expect)
                                  : expect.status().ToString()) +
                     ": " + n.query.ToSql());
    }
    tally->failed += (n_ok ? 0 : 1) + (s_ok ? 0 : 1);
  }
}

bool SameSim(double a, double b) {
  return std::fabs(a - b) <= kSimTolerance * std::max(std::fabs(a), std::fabs(b));
}

// The traced replay must reproduce the experiment function's records:
// a query whose simulated seconds or row count differ fails.
void CheckTracedMatches(const Outcome& traced, const Outcome& reference,
                        Tally* tally) {
  auto compare = [&](const std::vector<QueryRecord>& a,
                     const std::vector<QueryRecord>& b, const char* mode) {
    tally->attempted += a.size();
    if (a.size() != b.size()) {
      tally->Problem(std::string("traced ") + mode + " query count differs");
      tally->failed += a.size();
      return;
    }
    for (size_t i = 0; i < a.size(); i++) {
      if (a[i].row_count != b[i].row_count || !SameSim(a[i].seconds, b[i].seconds)) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "traced %s query %zu: %.17g s %llu rows vs %.17g s "
                      "%llu rows",
                      mode, i, a[i].seconds,
                      static_cast<unsigned long long>(a[i].row_count),
                      b[i].seconds,
                      static_cast<unsigned long long>(b[i].row_count));
        tally->Problem(line);
        tally->failed++;
      }
    }
  };
  compare(traced.normal, reference.normal, "normal");
  compare(traced.speculative, reference.speculative, "speculative");
}

// ------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const Tally& tally, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally.failed == 0 && tally.problems.empty() ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (size_t i = 0; i < metrics.size(); i++) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Mean(const std::vector<QueryRecord>& records) {
  double sum = 0;
  for (const auto& r : records) sum += r.seconds;
  return records.empty() ? 0 : sum / static_cast<double>(records.size());
}

uint64_t CounterFamilyDelta(const MetricsSnapshot& before,
                            const MetricsSnapshot& after,
                            const std::string& suffix) {
  // storage.disk.<x> on a single node, storage.node<k>.disk.<x> on a
  // sharded store.
  uint64_t total = 0;
  for (const auto& [name, value] : after.counters) {
    bool single = name == "storage.disk." + suffix;
    bool node = name.rfind("storage.node", 0) == 0 &&
                name.size() > suffix.size() + 6 &&
                name.compare(name.size() - suffix.size() - 6, std::string::npos,
                             ".disk." + suffix) == 0;
    if (single || node) total += value - before.counter(name);
  }
  return total;
}

// Mean host microseconds of BufferPool::FetchPage on a cold pool over
// every base-table page, median over kFetchPasses passes.
Result<double> FetchMissMicros(Database* db) {
  std::vector<double> pass_means;
  for (int pass = 0; pass < kFetchPasses; pass++) {
    SQP_RETURN_IF_ERROR(db->ColdStart());
    int64_t ns = 0;
    size_t pages = 0;
    for (const auto& name : tpch::TableNames()) {
      for (page_id_t pid : db->catalog().GetTable(name)->heap->pages()) {
        int64_t t0 = NowNs();
        auto page = db->buffer_pool().FetchPage(pid);
        ns += NowNs() - t0;
        if (!page.ok()) return page.status();
        db->buffer_pool().UnpinPage(pid, false);
        pages++;
      }
    }
    pass_means.push_back(static_cast<double>(ns) * 1e-3 /
                         static_cast<double>(std::max<size_t>(pages, 1)));
  }
  return Median(pass_means);
}

bool CheckCardinalities(const specbench::RefDatabase& ref, Tally* tally) {
  tpch::TableSizes sizes = tpch::SizesForScale(tpch::Scale::kSmall);
  const std::map<std::string, uint64_t> expect = {
      {"part", sizes.part},         {"supplier", sizes.supplier},
      {"partsupp", sizes.partsupp}, {"customer", sizes.customer},
      {"orders", sizes.orders},     {"lineitem", sizes.lineitem}};
  bool ok = true;
  for (const auto& [name, rows] : expect) {
    const specbench::RefTable* t = ref.Find(name);
    if (t == nullptr || t->rows != rows) {
      tally->Problem("table " + name + " has " +
                     std::to_string(t == nullptr ? 0 : t->rows) +
                     " rows, expected " + std::to_string(rows));
      ok = false;
    }
  }
  return ok;
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "specbench: %s\n", what.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return Fail(
        "usage: specbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--spans-out <file>] [--corrupt-reference 1]");
  }
  auto workload = MakeWorkload(args.workload, args.seed);
  if (!workload.has_value()) return Fail("unknown workload " + args.workload);
  const Workload& w = *workload;

  // Set-up, several times; only the traces are kept.
  SpanLog log;
  std::vector<double> setup_s, load_s, generate_s;
  std::vector<Trace> traces;
  for (int i = 0; i < kSetupRepeats; i++) {
    auto setup = RunSetup(w.cfg, &log);
    if (!setup.ok()) return Fail("set-up: " + setup.status().ToString());
    setup_s.push_back(setup->load_s + setup->generate_s);
    load_s.push_back(setup->load_s);
    generate_s.push_back(setup->generate_s);
    traces = std::move(setup->traces);
  }
  const double setup_median = Median(setup_s);

  // Whole rounds of the experiment function until --seconds have passed.
  std::vector<double> replay_s;
  std::vector<Outcome> rounds;
  double replayed = 0;
  do {
    int64_t t0 = NowNs();
    auto outcome = RunExperiment(w);
    double wall = Seconds(NowNs() - t0);
    if (!outcome.ok()) return Fail("experiment: " + outcome.status().ToString());
    replay_s.push_back(wall - setup_median);
    replayed += wall;
    rounds.push_back(std::move(*outcome));
  } while (!args.trace && replayed < args.seconds);
  // Read before the benchmark's own reference data is allocated.
  const double peak_rss_mb = PeakRssMb();

  // The reference decode and the cold-fetch timing use a database of
  // their own, built after the measured rounds.
  Tally tally;
  specbench::RefDatabase ref;
  double fetch_miss_us = 0;
  {
    auto probe = BuildDatabase(w.cfg);
    if (!probe.ok()) return Fail("set-up: " + probe.status().ToString());
    Status decoded =
        specbench::DecodeTables(probe->get(), tpch::TableNames(), &ref);
    if (!decoded.ok()) return Fail("reference decode: " + decoded.ToString());
    if (args.trace) {
      auto us = FetchMissMicros(probe->get());
      if (!us.ok()) return Fail("fetch timing: " + us.status().ToString());
      fetch_miss_us = *us;
    }
  }
  const bool data_ok = CheckCardinalities(ref, &tally);
  ReferenceCounts counts(&ref, args.corrupt_reference ? 1 : 0);
  for (const auto& round : rounds) {
    CheckOutcome(w, round, traces, data_ok, &counts, &tally);
  }
  const double replay_median = Median(replay_s);
  const Outcome& first = rounds.front();

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", setup_median, "s"},
        {"replay_s", replay_median, "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"final_query_sim_s", Mean(first.speculative), "sim_s"},
        {"normal_query_sim_s", Mean(first.normal), "sim_s"},
    };
  } else {
    // Traced replay on a fresh database, as the experiment function
    // builds one.
    auto db = BuildDatabase(w.cfg);
    if (!db.ok()) return Fail("set-up: " + db.status().ToString());
    Counter* exec_rows = MetricsRegistry::Global().GetCounter("exec.batch.rows");
    MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
    const size_t from = log.size();
    uint64_t rows_in_exec = 0;
    Outcome traced;
    int64_t t0 = NowNs();
    Status st = w.multi_user
                    ? TracedMultiUser(w, db->get(), traces, &log, exec_rows,
                                      &rows_in_exec, &traced)
                    : TracedSingleUser(w, db->get(), traces, &log, exec_rows,
                                       &rows_in_exec, &traced);
    const double traced_wall = Seconds(NowNs() - t0);
    if (!st.ok()) return Fail("traced replay: " + st.ToString());
    MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
    CheckOutcome(w, traced, traces, data_ok, &counts, &tally);
    CheckTracedMatches(traced, first, &tally);

    auto delta = [&](const char* name) {
      return static_cast<double>(after.counter(name) - before.counter(name));
    };
    double spec_host = 0;
    for (const char* call : {"OnUserEvent", "OnUserEvent(normal)", "OnGo",
                             "ResolveWait", "OnQueryResult", "Shutdown"}) {
      for (double ms : log.DurationsMs("speculation", call, from)) {
        spec_host += ms * 1e-3;
      }
    }
    double pretrain = 0;
    for (double ms : log.DurationsMs("speculation", "PretrainLearner", from)) {
      pretrain += ms * 1e-3;
    }
    std::vector<double> edit_ms = log.DurationsMs("speculation", "OnUserEvent", from);
    double exec_host = log.LayerSeconds("exec", from);
    double materialized = delta("attr.manipulation.tuples");
    double hits = delta("bufferpool.hits");
    double misses = delta("bufferpool.misses");
    std::vector<QueryRecord> all = traced.normal;
    all.insert(all.end(), traced.speculative.begin(), traced.speculative.end());
    size_t rewritten = 0;
    for (const auto& q : traced.speculative) {
      if (!q.views_used.empty()) rewritten++;
    }
    size_t events = 0;
    for (const auto& t : traces) events += t.events.size();
    double coldstart_ms = 0;
    for (double ms : log.DurationsMs("db", "ColdStart", from)) coldstart_ms += ms;

    metrics = {
        {"workload.load_s", Median(load_s), "s"},
        {"trace.generate_s", Median(generate_s), "s"},
        {"trace.events", static_cast<double>(events), "count"},
        {"harness.traced_replay_s", traced_wall, "s"},
        {"harness.unaccounted_s", traced_wall - log.TotalSeconds(from), "s"},
        {"harness.tracing_overhead_s", traced_wall - replay_median, "s"},
        {"speculation.host_s", spec_host, "s"},
        {"speculation.pretrain_s", pretrain, "s"},
        {"speculation.edit_host_ms.p50", Quantile(edit_ms, 0.5), "ms"},
        {"speculation.edit_host_ms.p95", Quantile(edit_ms, 0.95), "ms"},
        {"speculation.materialized_tuples", materialized, "count"},
        {"speculation.host_us_per_materialized_tuple",
         materialized > 0 ? spec_host * 1e6 / materialized : 0, "us"},
        {"speculation.candidates_priced",
         delta("speculator.candidates_considered"), "count"},
        {"speculation.manipulations_issued",
         static_cast<double>(traced.issued), "count"},
        {"speculation.manipulations_completed",
         static_cast<double>(traced.completed), "count"},
        {"speculation.completion_ratio",
         traced.issued > 0 ? static_cast<double>(traced.completed) /
                                 static_cast<double>(traced.issued)
                           : 0,
         "ratio"},
        {"optimizer.plan_host_ms.p50",
         Quantile(log.DurationsMs("optimizer", "Plan", from), 0.5), "ms"},
        {"optimizer.root_q_error.mean", MeanRootQError(all), "ratio"},
        {"optimizer.view_rewrite_ratio",
         traced.speculative.empty()
             ? 0
             : static_cast<double>(rewritten) /
                   static_cast<double>(traced.speculative.size()),
         "ratio"},
        {"exec.host_s", exec_host, "s"},
        {"exec.query_host_ms.p50",
         Quantile(log.DurationsMs("exec", "Execute", from), 0.5), "ms"},
        {"exec.query_host_ms.p90",
         Quantile(log.DurationsMs("exec", "Execute", from), 0.9), "ms"},
        {"exec.normal_query_host_ms.p50",
         Quantile(log.DurationsMs("exec", "Execute(normal)", from), 0.5),
         "ms"},
        {"exec.rows", static_cast<double>(rows_in_exec), "count"},
        {"exec.host_ns_per_row",
         rows_in_exec > 0 ? exec_host * 1e9 / static_cast<double>(rows_in_exec)
                          : 0,
         "ns"},
        {"storage.disk_reads",
         static_cast<double>(CounterFamilyDelta(before, after, "reads")),
         "count"},
        {"storage.disk_writes",
         static_cast<double>(CounterFamilyDelta(before, after, "writes")),
         "count"},
        {"storage.bufferpool_hit_ratio",
         hits + misses > 0 ? hits / (hits + misses) : 0, "ratio"},
        {"storage.fetch_miss_us", fetch_miss_us, "us"},
        {"storage.shadow_reads", delta("storage.node.reads_shadow"), "count"},
        {"db.coldstart_ms", coldstart_ms, "ms"},
        {"sim.host_s", log.LayerSeconds("sim", from), "s"},
        {"sim.jobs_cancelled", delta("sim.jobs_cancelled"), "count"},
    };
    if (!args.spans_out.empty() &&
        !WriteFile(args.spans_out, log.ExportChromeTrace())) {
      return Fail("cannot write spans to " + args.spans_out);
    }
  }

  for (const auto& p : tally.problems) {
    std::fprintf(stderr, "specbench: check failed: %s\n", p.c_str());
  }
  PrintResult(tally, metrics);
  return tally.failed == 0 && tally.problems.empty() ? 0 : 1;
}
