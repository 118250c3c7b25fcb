// Integration tests: the full HERO pipeline, cross-method evaluation through
// the shared harness, and sim-to-"real" transfer of trained controllers.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "algos/dqn.h"
#include "hero/hero_trainer.h"
#include "nn/serialize.h"
#include "obs/alerts.h"
#include "obs/metrics.h"
#include "rl/evaluation.h"
#include "sim/scenario.h"

namespace hero {
namespace {

core::HeroConfig fast_hero() {
  core::HeroConfig cfg;
  cfg.skill.sac.batch = 32;
  cfg.skill.sac.warmup_steps = 64;
  cfg.high.batch = 16;
  cfg.high.warmup_transitions = 16;
  cfg.opponent.min_samples = 32;
  return cfg;
}

TEST(HeroPipeline, StageOneProducesCurvesForLearnedSkills) {
  Rng rng(1);
  auto sc = sim::cooperative_lane_change();
  core::HeroTrainer trainer(sc, fast_hero(), rng);
  auto curves = trainer.train_skills(10, rng);
  EXPECT_EQ(curves.size(), 3u);  // keep-lane is not learned
  EXPECT_EQ(curves.count(core::Option::kKeepLane), 0u);
  for (const auto& [o, curve] : curves) {
    (void)o;
    EXPECT_EQ(curve.size(), 10u);
  }
}

TEST(HeroPipeline, StageTwoTrainsAndFillsBuffers) {
  Rng rng(2);
  auto sc = sim::cooperative_lane_change();
  core::HeroTrainer trainer(sc, fast_hero(), rng);
  trainer.train_skills(20, rng);

  int hooks = 0;
  trainer.train(10, rng, [&](int, const rl::EpisodeStats& s) {
    ++hooks;
    EXPECT_GT(s.steps, 0);
    EXPECT_LE(s.steps, sc.config.max_steps);
  });
  EXPECT_EQ(hooks, 10);
  for (int k = 0; k < trainer.num_agents(); ++k) {
    EXPECT_GT(trainer.agent(k).high_level().buffered(), 0u);
  }
}

TEST(HeroPipeline, OpponentLossHistoryGrowsDuringTraining) {
  Rng rng(3);
  auto sc = sim::cooperative_lane_change();
  auto cfg = fast_hero();
  cfg.opponent.min_samples = 16;
  core::HeroTrainer trainer(sc, cfg, rng);
  trainer.train_skills(10, rng);
  trainer.train(15, rng);
  const auto& hist = trainer.agent(1).opponents().loss_history();
  ASSERT_EQ(hist.size(), 2u);  // two opponents from vehicle 2's perspective
  EXPECT_GT(hist[0].size(), 0u);
  EXPECT_GT(hist[1].size(), 0u);
}

TEST(HeroPipeline, ControllerProducesValidCommands) {
  Rng rng(4);
  auto sc = sim::cooperative_lane_change();
  core::HeroTrainer trainer(sc, fast_hero(), rng);
  trainer.train_skills(10, rng);

  sim::LaneWorld world(sc.config);
  world.reset(rng);
  trainer.begin_episode(world);
  while (!world.done()) {
    auto cmds = trainer.act(world, rng, /*explore=*/false);
    ASSERT_EQ(cmds.size(), 3u);
    for (const auto& c : cmds) {
      EXPECT_GE(c.linear, 0.0);
      EXPECT_LE(c.linear, 0.25);           // actuator envelope
      EXPECT_LE(std::abs(c.angular), 0.6);
    }
    (void)world.step(cmds, rng);
  }
}

TEST(HeroPipeline, EvaluationDoesNotPolluteReplay) {
  Rng rng(5);
  auto sc = sim::cooperative_lane_change();
  core::HeroTrainer trainer(sc, fast_hero(), rng);
  trainer.train_skills(10, rng);
  trainer.train(5, rng);
  const std::size_t buffered = trainer.agent(0).high_level().buffered();

  sim::LaneWorld world(sc.config);
  (void)rl::evaluate(world, trainer, rng, 5, sc.merger_index, sc.merger_target_lane);
  EXPECT_EQ(trainer.agent(0).high_level().buffered(), buffered);
}

TEST(HeroPipeline, RunsOnDomainShiftedWorld) {
  Rng rng(6);
  auto sc = sim::cooperative_lane_change();
  core::HeroTrainer trainer(sc, fast_hero(), rng);
  trainer.train_skills(10, rng);

  sim::LaneWorld real_world(sim::with_real_world_shift(sc.config));
  auto summary = rl::evaluate(real_world, trainer, rng, 5, sc.merger_index,
                              sc.merger_target_lane);
  EXPECT_EQ(summary.episodes, 5);
  EXPECT_GE(summary.collision_rate, 0.0);
  EXPECT_LE(summary.collision_rate, 1.0);
}

TEST(HeroPipeline, AsynchronousTermination) {
  // Agents must hold options of different remaining lengths — after a few
  // steps their option ages must not all be equal (asynchronous mode).
  Rng rng(7);
  auto sc = sim::cooperative_lane_change();
  core::HeroTrainer trainer(sc, fast_hero(), rng);
  trainer.train_skills(5, rng);

  sim::LaneWorld world(sc.config);
  bool saw_desync = false;
  for (int ep = 0; ep < 5 && !saw_desync; ++ep) {
    world.reset(rng);
    trainer.begin_episode(world);
    while (!world.done()) {
      auto cmds = trainer.act(world, rng, /*explore=*/true);
      (void)world.step(cmds, rng);
      const int s0 = trainer.agent(0).execution().steps;
      const int s1 = trainer.agent(1).execution().steps;
      const int s2 = trainer.agent(2).execution().steps;
      if (s0 != s1 || s1 != s2) saw_desync = true;
    }
  }
  EXPECT_TRUE(saw_desync);
}

TEST(HeroPipeline, DeterministicGivenSeed) {
  auto run = [](unsigned seed) {
    Rng rng(seed);
    auto sc = sim::cooperative_lane_change();
    core::HeroTrainer trainer(sc, fast_hero(), rng);
    trainer.train_skills(5, rng);
    std::vector<double> rewards;
    trainer.train(5, rng, [&](int, const rl::EpisodeStats& s) {
      rewards.push_back(s.team_reward);
    });
    return rewards;
  };
  EXPECT_EQ(run(11), run(11));
}

// Serialized learner parameters (actors, critics, opponent predictors) —
// bitwise fingerprint for the determinism tests below.
std::string learner_params(core::HeroTrainer& t) {
  std::ostringstream os;
  for (int k = 0; k < t.num_agents(); ++k) {
    auto& a = t.agent(k);
    nn::save_params(a.high_level().actor().net(), os);
    nn::save_params(a.high_level().critic(), os);
    for (int j = 0; j < a.opponents().num_opponents(); ++j) {
      nn::save_params(a.opponents().net(j), os);
    }
  }
  return os.str();
}

TEST(HeroParallel, SameSeedRunsAreBitwiseIdentical) {
  // A 2-worker pool trains the stage-1 skills (one task per skill on its
  // own RNG stream); the whole pipeline must still be a pure function of
  // the seed.
  auto run = [](std::string* params) {
    Rng rng(17);
    auto sc = sim::cooperative_lane_change();
    auto cfg = fast_hero();
    cfg.num_workers = 2;
    core::HeroTrainer trainer(sc, cfg, rng);
    trainer.train_skills(3, rng);
    std::vector<double> rewards;
    trainer.train(6, rng, [&](int, const rl::EpisodeStats& s) {
      rewards.push_back(s.team_reward);
    });
    *params = learner_params(trainer);
    return rewards;
  };
  std::string p1, p2;
  const auto r1 = run(&p1);
  const auto r2 = run(&p2);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(p1, p2);
}

TEST(HeroParallel, ResultsInvariantToWorkerCount) {
  // Stage 2 is keyed to (seed, batch_envs) only: num_workers sizes the
  // stage-1 skill pool and never reaches the batched engine.
  auto run = [](int workers, std::string* params) {
    Rng rng(23);
    auto sc = sim::cooperative_lane_change();
    auto cfg = fast_hero();
    cfg.num_workers = workers;
    cfg.batch_envs = 4;
    core::HeroTrainer trainer(sc, cfg, rng);
    std::vector<double> rewards;
    trainer.train(6, rng, [&](int, const rl::EpisodeStats& s) {
      rewards.push_back(s.team_reward);
    });
    *params = learner_params(trainer);
    return rewards;
  };
  std::string p1, p4;
  const auto r1 = run(1, &p1);
  const auto r4 = run(4, &p4);
  EXPECT_EQ(r1, r4);
  EXPECT_EQ(p1, p4);
}

TEST(HeroParallel, HooksFireInCanonicalEpisodeOrder) {
  // A 3-worker stage-1 pool must leave stage 2 reporting episodes in order
  // at the default width, with the experience in the learner's buffers.
  Rng rng(29);
  auto sc = sim::cooperative_lane_change();
  auto cfg = fast_hero();
  cfg.num_workers = 3;
  core::HeroTrainer trainer(sc, cfg, rng);
  trainer.train_skills(3, rng);
  std::vector<int> episodes;
  trainer.train(7, rng, [&](int ep, const rl::EpisodeStats& s) {
    episodes.push_back(ep);
    EXPECT_GT(s.steps, 0);
  });
  std::vector<int> want(7);
  for (int i = 0; i < 7; ++i) want[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(episodes, want);
  for (int k = 0; k < trainer.num_agents(); ++k) {
    EXPECT_GT(trainer.agent(k).high_level().buffered(), 0u);
  }
}

TEST(HeroBatched, RejectsWidthBelowOne) {
  Rng rng(3);
  auto cfg = fast_hero();
  cfg.batch_envs = 0;
  EXPECT_THROW(core::HeroTrainer(sim::cooperative_lane_change(), cfg, rng),
               std::logic_error);
}

TEST(HeroBatched, InstrumentedRunReportsThroughput) {
  // Each round's env steps over its wall-clock feed the steps_per_sec
  // histogram (and the throughput_collapse rule) once per episode.
  obs::Registry::instance().reset_values();
  obs::set_metrics_enabled(true);
  Rng rng(43);
  auto sc = sim::cooperative_lane_change();
  core::HeroTrainer trainer(sc, fast_hero(), rng);
  trainer.train(2, rng);
  obs::set_metrics_enabled(false);
  const auto& h = obs::Registry::instance().histogram("hero.stage2.steps_per_sec");
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GT(h.min(), 0.0);
  obs::Registry::instance().reset_values();
  obs::AlertEngine::instance().reset();
}

TEST(HeroBatched, SameSeedRunsAreBitwiseIdentical) {
  // The batch-first engine's determinism contract: results are a pure
  // function of (seed, batch_envs) — docs/BATCHING.md.
  auto run = [](std::string* params) {
    Rng rng(31);
    auto sc = sim::cooperative_lane_change();
    auto cfg = fast_hero();
    cfg.batch_envs = 3;
    core::HeroTrainer trainer(sc, cfg, rng);
    std::vector<double> rewards;
    trainer.train(6, rng, [&](int, const rl::EpisodeStats& s) {
      rewards.push_back(s.team_reward);
    });
    *params = learner_params(trainer);
    return rewards;
  };
  std::string p1, p2;
  const auto r1 = run(&p1);
  const auto r2 = run(&p2);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(p1, p2);
}

TEST(HeroBatched, TrainsAndFillsBuffersAtWidthOne) {
  // batch_envs = 1 exercises every lane-retirement and merge edge with a
  // single live lane — the smallest deployment of the batched engine.
  Rng rng(37);
  auto sc = sim::cooperative_lane_change();
  auto cfg = fast_hero();
  cfg.batch_envs = 1;
  core::HeroTrainer trainer(sc, cfg, rng);
  int hooks = 0;
  trainer.train(5, rng, [&](int ep, const rl::EpisodeStats& s) {
    EXPECT_EQ(ep, hooks);
    ++hooks;
    EXPECT_GT(s.steps, 0);
    EXPECT_LE(s.steps, sc.config.max_steps);
  });
  EXPECT_EQ(hooks, 5);
  for (int k = 0; k < trainer.num_agents(); ++k) {
    EXPECT_GT(trainer.agent(k).high_level().buffered(), 0u);
    EXPECT_GT(trainer.agent(k).high_level().selections(), 0);
  }
}

TEST(HeroBatched, HooksFireInCanonicalEpisodeOrder) {
  // Lane order IS episode order, including the short tail round (7 episodes
  // over width-3 rounds: 3 + 3 + 1).
  Rng rng(41);
  auto sc = sim::cooperative_lane_change();
  auto cfg = fast_hero();
  cfg.batch_envs = 3;
  core::HeroTrainer trainer(sc, cfg, rng);
  std::vector<int> episodes;
  trainer.train(7, rng, [&](int ep, const rl::EpisodeStats& s) {
    episodes.push_back(ep);
    EXPECT_GT(s.steps, 0);
  });
  std::vector<int> want(7);
  for (int i = 0; i < 7; ++i) want[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(episodes, want);
  for (int k = 0; k < trainer.num_agents(); ++k) {
    EXPECT_GT(trainer.agent(k).high_level().buffered(), 0u);
    EXPECT_GT(trainer.agent(k).opponents().samples(), 0u);
  }
}

// One exploring episode of `sc` through a width-1 BatchedRollout over the
// trainer's model (episode stream 0 of root 7).
core::BatchedEpisode rollout_episode(core::HeroTrainer& trainer,
                                     const sim::Scenario& sc, bool observing) {
  const auto& cfg = trainer.config();
  core::BatchedRollout rollout(sc, cfg.high, cfg.skill.termination,
                               trainer.skills(), trainer.agents(), 1);
  rollout.run_round(/*root=*/7, /*first=*/0, /*count=*/1, observing);
  return rollout.episode(0);
}

TEST(HeroBatched, OneHotOpponentOptionsFollowTheAgentMajorBoard) {
  // Every option ends after one step, so transition t of each agent starts
  // at step t. When agent k selects, agents j < k already hold this step's
  // option and agents j > k the previous one (keep-lane before the first).
  auto cfg = fast_hero();
  cfg.skill.termination.synchronous = true;
  cfg.skill.termination.in_lane_duration = 1;
  Rng rng(53);
  const auto sc = sim::cooperative_lane_change();
  core::HeroTrainer trainer(sc, cfg, rng);
  const auto ep = rollout_episode(trainer, sc, /*observing=*/false);
  const int n = trainer.num_agents();
  const std::size_t steps = static_cast<std::size_t>(ep.stats.steps);
  ASSERT_GT(steps, 1u);
  for (int k = 0; k < n; ++k) {
    const auto& ts = ep.high[static_cast<std::size_t>(k)];
    ASSERT_EQ(ts.size(), steps);
    for (std::size_t t = 0; t < steps; ++t) {
      ASSERT_EQ(ts[t].opp_actual.size(),
                static_cast<std::size_t>(n - 1) * core::kNumOptions);
      std::size_t slot = 0;
      for (int j = 0; j < n; ++j) {
        if (j == k) continue;
        const auto& tj = ep.high[static_cast<std::size_t>(j)];
        const int held = j < k    ? tj[t].option
                         : t == 0 ? static_cast<int>(core::Option::kKeepLane)
                                  : tj[t - 1].option;
        for (int o = 0; o < core::kNumOptions; ++o) {
          EXPECT_EQ(ts[t].opp_actual[slot * core::kNumOptions +
                                     static_cast<std::size_t>(o)],
                    o == held ? 1.0 : 0.0)
              << "agent " << k << " step " << t << " opponent " << j;
        }
        // The label of step t is the option opponent j held during it.
        EXPECT_EQ(ep.opp[static_cast<std::size_t>(k)]
                      .options[t * static_cast<std::size_t>(n - 1) + slot],
                  tj[t].option);
        ++slot;
      }
    }
  }
}

TEST(HeroBatched, OpponentScoreboardScoresEveryLabel) {
  // Observed rollouts score each opponent label of every step against the
  // block cached at selection: steps·n·(n−1) predictions per episode.
  for (const bool use_opp : {true, false}) {
    auto cfg = fast_hero();
    cfg.high.use_opponent_model = use_opp;
    Rng rng(55);
    const auto sc = sim::cooperative_lane_change();
    core::HeroTrainer trainer(sc, cfg, rng);
    const long n = trainer.num_agents();
    const auto ep = rollout_episode(trainer, sc, /*observing=*/true);
    if (use_opp) {
      EXPECT_EQ(ep.opp_total, ep.stats.steps * n * (n - 1));
      EXPECT_GE(ep.opp_correct, 0);
      EXPECT_LE(ep.opp_correct, ep.opp_total);
    } else {
      EXPECT_EQ(ep.opp_total, 0);
    }
    EXPECT_EQ(rollout_episode(trainer, sc, /*observing=*/false).opp_total, 0);

    // The trainer reports the scoreboard as the accuracy gauge.
    obs::Registry::instance().reset_values();
    obs::set_metrics_enabled(true);
    trainer.train(3, rng);
    obs::set_metrics_enabled(false);
    const double acc =
        obs::Registry::instance().gauge("hero.stage2.opponent_accuracy").value();
    EXPECT_GE(acc, 0.0);
    EXPECT_LE(acc, 1.0);
    if (!use_opp) {
      EXPECT_EQ(acc, 0.0);
    }
    obs::Registry::instance().reset_values();
    obs::AlertEngine::instance().reset();
  }
}

// Steps `trainer` and `restored` greedily through one identical episode and
// expects identical commands.
void expect_same_greedy_episode(core::HeroTrainer& trainer,
                                core::HeroTrainer& restored,
                                const sim::Scenario& sc) {
  sim::LaneWorld w1(sc.config), w2(sc.config);
  Rng e1(7), e2(7);
  w1.reset(e1);
  w2.reset(e2);
  trainer.begin_episode(w1);
  restored.begin_episode(w2);
  while (!w1.done() && !w2.done()) {
    auto c1 = trainer.act(w1, e1, false);
    auto c2 = restored.act(w2, e2, false);
    ASSERT_EQ(c1.size(), c2.size());
    for (std::size_t i = 0; i < c1.size(); ++i) {
      EXPECT_NEAR(c1[i].linear, c2[i].linear, 1e-12);
      EXPECT_NEAR(c1[i].angular, c2[i].angular, 1e-12);
    }
    (void)w1.step(c1, e1);
    (void)w2.step(c2, e2);
  }
}

TEST(HeroPipeline, CheckpointRoundTripReproducesBehaviour) {
  Rng rng(9);
  auto sc = sim::cooperative_lane_change();
  core::HeroTrainer trainer(sc, fast_hero(), rng);
  trainer.train_skills(15, rng);
  trainer.train(10, rng);

  const auto dir = std::filesystem::temp_directory_path() / "hero_ckpt_test";
  std::filesystem::create_directories(dir);
  trainer.save(dir.string());

  Rng rng2(99);
  core::HeroTrainer restored(sc, fast_hero(), rng2);
  restored.load(dir.string());

  expect_same_greedy_episode(trainer, restored, sc);
  // Loaded opponent models must be trusted (not the uniform prior).
  EXPECT_TRUE(restored.agent(0).opponents().trained());
  std::filesystem::remove_all(dir);
}

TEST(HeroPipeline, CheckpointBelowMinSamplesReloadsUntrusted) {
  // Saved before the opponent predictors reach min_samples: the original
  // answers with the uniform prior, so the reloaded copy must too.
  Rng rng(10);
  auto sc = sim::cooperative_lane_change();
  auto cfg = fast_hero();
  cfg.opponent.min_samples = 1u << 20;
  core::HeroTrainer trainer(sc, cfg, rng);
  trainer.train_skills(5, rng);
  trainer.train(3, rng);
  ASSERT_FALSE(trainer.agent(0).opponents().prediction_ready());

  const auto dir = std::filesystem::temp_directory_path() / "hero_ckpt_untrusted";
  std::filesystem::create_directories(dir);
  trainer.save(dir.string());
  Rng rng2(98);
  core::HeroTrainer restored(sc, cfg, rng2);
  restored.load(dir.string());
  std::filesystem::remove_all(dir);

  sim::LaneWorld world(sc.config);
  Rng reset_rng(5);
  world.reset(reset_rng);
  for (int k = 0; k < trainer.num_agents(); ++k) {
    EXPECT_FALSE(restored.agent(k).opponents().prediction_ready()) << "agent " << k;
    const auto obs = world.high_level_obs(world.learners()[static_cast<std::size_t>(k)]);
    EXPECT_EQ(restored.agent(k).opponents().predict_all(obs),
              trainer.agent(k).opponents().predict_all(obs))
        << "agent " << k;
  }
  expect_same_greedy_episode(trainer, restored, sc);
}

TEST(CrossMethod, SharedHarnessScoresHeroAndDqnIdentically) {
  // Both controllers must run through the same evaluate() without special
  // cases — the property the Fig. 7/11 and Table II benches rely on.
  Rng rng(8);
  auto sc = sim::cooperative_lane_change();

  core::HeroTrainer hero(sc, fast_hero(), rng);
  hero.train_skills(5, rng);

  algos::DqnConfig dq;
  dq.batch = 16;
  dq.warmup_steps = 32;
  algos::IndependentDqnTrainer dqn(sc, dq, rng);

  sim::LaneWorld world(sc.config);
  auto s1 = rl::evaluate(world, hero, rng, 3, sc.merger_index, sc.merger_target_lane);
  auto s2 = rl::evaluate(world, dqn, rng, 3, sc.merger_index, sc.merger_target_lane);
  EXPECT_EQ(s1.episodes, 3);
  EXPECT_EQ(s2.episodes, 3);
}

}  // namespace
}  // namespace hero
