// `hero_bench train`: the training workloads (paper_pipeline, paper_stage2,
// dense_stage2) and the serve fixture's pipeline.
//
// One repetition is what `hero_train` then `hero_eval` cost a user: scenario
// load and trainer construction (set-up), stage-1 skills, stage-2 training,
// checkpoint save and a greedy rl::evaluate_batch on a fixed evaluation
// stream. Repetition 0 runs with the phase tree and the metrics registry on:
// it is the warm-up, the source of the per-layer ledger and of the work
// counts, and it also reloads its checkpoint into a fresh trainer and checks
// the reloaded greedy evaluation bitwise. The timed repetitions that follow
// run with every obs subsystem off and must repeat repetition 0's work
// counts and evaluation exactly. Each records the time at every episode
// boundary, so run.py can take medians segment by segment; set-up alone is
// timed a few times before each.
#include <malloc.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "bench.h"
#include "hero/checkpoint.h"
#include "hero/hero_trainer.h"
#include "obs/alerts.h"
#include "obs/metrics.h"
#include "obs/phase.h"
#include "rl/evaluation.h"
#include "sim/scenario.h"

namespace herobench {

namespace {

namespace fs = std::filesystem;
using hero::core::HeroConfig;
using hero::core::HeroTrainer;

// The greedy evaluation: a fixed number of episodes, 16 in lockstep.
constexpr int kEvalEpisodes = 32;
constexpr int kEvalBatch = 16;
// Set-ups timed before each timed repetition.
constexpr int kSetupsPerRep = 5;

struct TrainSpec {
  std::string scenario_path;  // empty = the paper's cooperative lane change
  int scenario_vehicles = 0;
  int skill_episodes = 50;
  int episodes = 200;
  int batch_envs = 16;
  int hl_warmup = -1;
  int hl_batch = -1;
  int opp_min_samples = -1;
  unsigned seed = 1;
  std::uint64_t eval_seed = 0x5eedULL;
  std::string ckpt;
};

struct Rep {
  double build_s = 0, stage1_s = 0, stage2_s = 0, save_s = 0, eval_s = 0;
  long stage1_steps = 0, stage2_steps = 0, stage2_episodes = 0;
  long sac_updates = 0, opponent_updates = 0;
  bool finite = true;
  double peak_rss_mb = 0;
  hero::rl::EvalSummary eval;
  // Durations of the pipeline's segments in order: each stage-1 skill
  // episode, the rest of stage 1, each stage-2 episode, the rest of stage 2,
  // the save and the evaluation. Repetitions do the same work, so segment i
  // of one repetition is the same work as segment i of any other.
  std::vector<double> segments_s;
  double pipeline_s() const { return stage1_s + stage2_s + save_s + eval_s; }
};

hero::sim::Scenario load_scenario(const TrainSpec& spec) {
  if (spec.scenario_path.empty()) {
    return hero::sim::cooperative_lane_change();
  }
  return hero::sim::load_scenario(spec.scenario_path, spec.scenario_vehicles);
}

HeroConfig make_config(const TrainSpec& spec) {
  HeroConfig cfg;
  cfg.batch_envs = spec.batch_envs;
  if (spec.hl_warmup >= 0) {
    cfg.high.warmup_transitions = static_cast<std::size_t>(spec.hl_warmup);
  }
  if (spec.hl_batch > 0) cfg.high.batch = static_cast<std::size_t>(spec.hl_batch);
  if (spec.opp_min_samples > 0) {
    cfg.opponent.min_samples = static_cast<std::size_t>(spec.opp_min_samples);
  }
  return cfg;
}

// Gradient steps SacAgent::observe has taken after `total_steps` stored
// transitions: one update per update_every-th step once the buffer holds
// max(batch, warmup) transitions (algos/sac.cpp). Repetition 0 checks this
// count against the sac.updates counter, so the rule cannot drift silently.
long derived_sac_updates(const hero::algos::SacAgent& agent) {
  const auto& c = agent.config();
  const long t = agent.total_steps();
  const long every = std::max(1, c.update_every);
  const long need = static_cast<long>(std::max(c.batch, c.warmup_steps));
  if (need > static_cast<long>(c.buffer_capacity) || t < need) return 0;
  return t / every - (need - 1) / every;
}

long checkpoint_bytes(const std::string& dir) {
  long bytes = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += static_cast<long>(e.file_size());
  }
  return bytes;
}

bool same_eval(const hero::rl::EvalSummary& a, const hero::rl::EvalSummary& b) {
  return a.episodes == b.episodes &&
         std::memcmp(&a.mean_reward, &b.mean_reward, sizeof(double)) == 0 &&
         std::memcmp(&a.collision_rate, &b.collision_rate, sizeof(double)) == 0 &&
         std::memcmp(&a.success_rate, &b.success_rate, sizeof(double)) == 0 &&
         std::memcmp(&a.mean_speed, &b.mean_speed, sizeof(double)) == 0;
}

hero::rl::EvalSummary evaluate(const TrainSpec& spec, const hero::sim::Scenario& sc,
                               HeroTrainer& trainer) {
  return hero::rl::evaluate_batch(sc.config, trainer, spec.eval_seed, kEvalEpisodes,
                                  kEvalBatch, sc.merger_index, sc.merger_target_lane);
}

std::string eval_json(const hero::rl::EvalSummary& e) {
  JsonObject o;
  o.num("collision_rate", e.collision_rate)
      .num("success_rate", e.success_rate)
      .num("mean_reward", e.mean_reward)
      .num("mean_speed", e.mean_speed)
      .integer("episodes", e.episodes);
  return o.dump();
}

std::string rep_json(const Rep& r) {
  JsonObject o;
  o.num("build_s", r.build_s)
      .num("stage1_s", r.stage1_s)
      .num("stage2_s", r.stage2_s)
      .num("save_s", r.save_s)
      .num("eval_s", r.eval_s)
      .num("pipeline_s", r.pipeline_s())
      .integer("stage1_steps", r.stage1_steps)
      .integer("stage2_steps", r.stage2_steps)
      .integer("stage2_episodes", r.stage2_episodes)
      .integer("sac_updates", r.sac_updates)
      .integer("opponent_updates", r.opponent_updates)
      .boolean("finite", r.finite)
      .num("peak_rss_mb", r.peak_rss_mb)
      .nums("segments_s", r.segments_s)
      .raw("eval", eval_json(r.eval));
  return o.dump();
}

// Extra facts repetition 0 records beyond a timed repetition.
struct Checks {
  double load_s = 0;
  long ckpt_bytes = 0;
  bool reload_eval_matches = false;
};

// Empties the checkpoint directory and writes back every dirty page, so
// each repetition's save starts from the same file-system state. Without
// the sync, each save's pages queue behind the earlier saves' writeback,
// and later repetitions save more slowly.
void prepare_checkpoint_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  ::sync();
}

// One full pipeline. With `checks` it also reloads the checkpoint into a
// freshly built trainer and evaluates that copy on the same stream.
Rep run_rep(const TrainSpec& spec, Checks* checks) {
  Rep r;
  const double t0 = now_s();
  const hero::sim::Scenario scenario = load_scenario(spec);
  const HeroConfig cfg = make_config(spec);
  hero::Rng rng(spec.seed);
  auto trainer = std::make_unique<HeroTrainer>(scenario, cfg, rng);
  const double t1 = now_s();
  r.build_s = t1 - t0;

  double last = t1;
  const auto mark = [&] {
    const double t = now_s();
    r.segments_s.push_back(t - last);
    last = t;
    return t;
  };

  trainer->train_skills(spec.skill_episodes, rng,
                        [&](hero::core::Option, int, double) { mark(); });
  const double t2 = mark();
  r.stage1_s = t2 - t1;

  trainer->train(spec.episodes, rng,
                 [&](int, const hero::rl::EpisodeStats& s) {
                   mark();
                   r.stage2_steps += s.steps;
                   ++r.stage2_episodes;
                   if (!std::isfinite(s.team_reward)) r.finite = false;
                 });
  const double t3 = mark();
  r.stage2_s = t3 - t2;

  trainer->save(spec.ckpt);
  const double t4 = mark();
  r.save_s = t4 - t3;

  r.eval = evaluate(spec, scenario, *trainer);
  r.eval_s = mark() - t4;

  for (int i = 0; i < hero::core::kNumOptions; ++i) {
    const auto o = hero::core::option_from_index(i);
    if (!trainer->skills().has_agent(o)) continue;
    const auto& agent = trainer->skills().agent(o);
    r.stage1_steps += agent.total_steps();
    r.sac_updates += derived_sac_updates(agent);
  }
  for (int k = 0; k < trainer->num_agents(); ++k) {
    for (const auto& losses : trainer->agent(k).opponents().loss_history()) {
      r.opponent_updates += static_cast<long>(losses.size());
      for (double l : losses) {
        if (!std::isfinite(l)) r.finite = false;
      }
    }
  }
  if (!std::isfinite(r.eval.mean_reward) || !std::isfinite(r.eval.mean_speed)) {
    r.finite = false;
  }

  if (checks) {
    trainer.reset();
    hero::Rng other(spec.seed + 1);
    HeroTrainer reloaded(scenario, cfg, other);
    const double l0 = now_s();
    hero::core::load_checkpoint(reloaded, spec.ckpt);
    checks->load_s = now_s() - l0;
    checks->ckpt_bytes = checkpoint_bytes(spec.ckpt);
    checks->reload_eval_matches = same_eval(evaluate(spec, scenario, reloaded), r.eval);
  }
  return r;
}

void set_instrumented(bool on) {
  hero::obs::set_phases_enabled(on);
  hero::obs::set_metrics_enabled(on);
}

// Resets VmHWM so the next reading covers only what follows (Linux
// clear_refs "5"; where the kernel refuses, readings stay process-wide).
void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

}  // namespace

int run_train(hero::Flags& flags) {
  TrainSpec spec;
  const std::string out = flags.get_string("out", "");
  spec.ckpt = flags.get_string("ckpt", "");
  spec.scenario_path = flags.get_string("scenario", "");
  spec.scenario_vehicles = flags.get_int("scenario-vehicles", 0);
  spec.skill_episodes = flags.get_int("skill-episodes", spec.skill_episodes);
  spec.episodes = flags.get_int("episodes", spec.episodes);
  spec.batch_envs = flags.get_int("batch-envs", spec.batch_envs);
  spec.hl_warmup = flags.get_int("hl-warmup", -1);
  spec.hl_batch = flags.get_int("hl-batch", -1);
  spec.opp_min_samples = flags.get_int("opp-min-samples", -1);
  spec.eval_seed = static_cast<std::uint64_t>(flags.get_int("eval-seed", 0x5eed));
  spec.seed = static_cast<unsigned>(flags.get_int("seed", 1));
  const double seconds = flags.get_double("seconds", 10.0);
  const int min_reps = flags.get_int("min-reps", 2);
  flags.check_unknown();
  if (out.empty() || spec.ckpt.empty()) {
    throw std::invalid_argument("--out and --ckpt are required");
  }

  // Repetition 0: instrumented warm-up, ledger, work counts, reload check.
  hero::obs::Registry::instance().reset_values();
  hero::obs::PhaseRegistry::instance().reset();
  hero::obs::AlertEngine::instance().reset();
  set_instrumented(true);
  Checks checks;
  prepare_checkpoint_dir(spec.ckpt);
  const Rep first = run_rep(spec, &checks);
  set_instrumented(false);
  const std::string phases = hero::obs::PhaseRegistry::instance().json();
  const std::string registry = hero::obs::Registry::instance().snapshot_json();

  // Timed repetitions take the allowed CPUs in turn, so a run samples every
  // CPU rather than whichever one a shared host slows down for a while.
  // Before each, set-up alone runs a few times (scenario load plus trainer
  // construction, the span a repetition's build_s covers), so the set-up
  // samples are spread over the run like the repetitions.
  const std::vector<int> cpus = allowed_cpus();
  std::vector<double> setup_s;
  std::vector<Rep> reps;
  const double start = now_s();
  while (static_cast<int>(reps.size()) < min_reps || now_s() - start < seconds) {
    pin_to_cpu(0, cpus[reps.size() % cpus.size()]);
    for (int i = 0; i < kSetupsPerRep; ++i) {
      const double t0 = now_s();
      const hero::sim::Scenario scenario = load_scenario(spec);
      hero::Rng rng(spec.seed);
      HeroTrainer trainer(scenario, make_config(spec), rng);
      setup_s.push_back(now_s() - t0);
    }
    // Each repetition's own peak: freed memory goes back to the kernel and
    // the high-water mark restarts, so the figure does not depend on how
    // many repetitions fit in the budget.
    prepare_checkpoint_dir(spec.ckpt);
    ::malloc_trim(0);
    reset_peak_rss();
    reps.push_back(run_rep(spec, nullptr));
    reps.back().peak_rss_mb = self_peak_rss_mb();
  }

  std::string reps_json = "[";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    if (i) reps_json += ',';
    reps_json += rep_json(reps[i]);
  }
  reps_json += ']';

  JsonObject doc;
  doc.raw("manifest", build_manifest_json())
      .raw("instrumented", rep_json(first))
      .num("load_s", checks.load_s)
      .integer("checkpoint_bytes", checks.ckpt_bytes)
      .boolean("reload_eval_matches", checks.reload_eval_matches)
      .raw("phases", phases)
      .raw("registry", registry)
      .raw("reps", reps_json)
      .nums("setup_s", setup_s);
  write_file(out, doc.dump());
  return 0;
}

}  // namespace herobench
