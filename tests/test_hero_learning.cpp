// Tests for HERO's learning components: the opponent model, the high-level
// actor–critic, the per-agent option selection, and the semi-MDP transitions
// the batched rollout stores for each agent.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "hero/hero_agent.h"
#include "nn/losses.h"
#include "rl/replay_buffer.h"
#include "hero/hero_trainer.h"
#include "sim/scenario.h"

namespace hero::core {
namespace {

// ------------------------------------------------------- OpponentModel ----

TEST(OpponentModel, UniformBeforeEnoughSamples) {
  Rng rng(1);
  OpponentModelConfig cfg;
  OpponentModel model(4, 2, cfg, rng);
  auto p = model.predict(0, {0.1, 0.2, 0.3, 0.4});
  for (double v : p) EXPECT_DOUBLE_EQ(v, 0.25);
  EXPECT_EQ(model.feature_dim(), 2u * kNumOptions);
}

TEST(OpponentModel, LearnsDeterministicRule) {
  Rng rng(2);
  OpponentModelConfig cfg;
  cfg.min_samples = 32;
  OpponentModel model(2, 1, cfg, rng);

  // Rule: obs[0] > 0 → kLaneChange, else kSlowDown.
  for (int i = 0; i < 600; ++i) {
    const double x = rng.uniform(-1.0, 1.0);
    model.observe({x, 0.5}, {x > 0 ? Option::kLaneChange : Option::kSlowDown});
    model.update(0, rng);
  }
  auto p_pos = model.predict(0, {0.8, 0.5});
  auto p_neg = model.predict(0, {-0.8, 0.5});
  EXPECT_GT(p_pos[static_cast<int>(Option::kLaneChange)], 0.8);
  EXPECT_GT(p_neg[static_cast<int>(Option::kSlowDown)], 0.8);
}

TEST(OpponentModel, LossDecreasesOverTraining) {
  Rng rng(3);
  OpponentModelConfig cfg;
  cfg.min_samples = 32;
  OpponentModel model(2, 1, cfg, rng);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-1.0, 1.0);
    model.observe({x, 0.0}, {x > 0 ? Option::kAccelerate : Option::kKeepLane});
    model.update(0, rng);
  }
  const auto& hist = model.loss_history()[0];
  ASSERT_GT(hist.size(), 100u);
  double early = 0, late = 0;
  for (std::size_t i = 0; i < 20; ++i) early += hist[i];
  for (std::size_t i = hist.size() - 20; i < hist.size(); ++i) late += hist[i];
  EXPECT_LT(late, early);
}

TEST(OpponentModel, PredictAllConcatenates) {
  Rng rng(4);
  OpponentModelConfig cfg;
  OpponentModel model(3, 2, cfg, rng);
  auto all = model.predict_all({0.0, 0.0, 0.0});
  EXPECT_EQ(all.size(), 2u * kNumOptions);
  double s = 0;
  for (double v : all) s += v;
  EXPECT_NEAR(s, 2.0, 1e-9);  // two distributions
}

TEST(OpponentModel, EntropyRegularizationKeepsPredictionsSoft) {
  // With a high λ the model must not saturate to one-hot even on a
  // deterministic rule.
  Rng rng(5);
  OpponentModelConfig sharp;
  sharp.entropy_lambda = 0.0;
  sharp.min_samples = 32;
  OpponentModelConfig soft;
  soft.entropy_lambda = 1.0;
  soft.min_samples = 32;
  OpponentModel m_sharp(1, 1, sharp, rng);
  OpponentModel m_soft(1, 1, soft, rng);
  for (int i = 0; i < 800; ++i) {
    m_sharp.observe({0.5}, {Option::kLaneChange});
    m_soft.observe({0.5}, {Option::kLaneChange});
    m_sharp.update(0, rng);
    m_soft.update(0, rng);
  }
  const double p_sharp = m_sharp.predict(0, {0.5})[static_cast<int>(Option::kLaneChange)];
  const double p_soft = m_soft.predict(0, {0.5})[static_cast<int>(Option::kLaneChange)];
  EXPECT_GT(p_sharp, p_soft);
  EXPECT_LT(p_soft, 0.95);
}

// The grouped model (one shared workspace, one observation store, one-pass
// loss) against independent predictors that each keep their own workspace,
// replay buffer and Adam state and use the three separate loss helpers —
// the model as it was built before the group. Losses, predictions and
// parameters must agree bitwise; predict_all_rows at changing row counts
// between updates reshapes the shared workspace.
TEST(OpponentModel, GroupMatchesIndependentPredictorsBitwise) {
  const std::size_t obs_dim = 5;
  const int m = 3;
  const std::size_t C = kNumOptions;
  OpponentModelConfig cfg;
  cfg.min_samples = 12;
  cfg.batch = 10;
  cfg.buffer_capacity = 30;  // the store wraps during the run
  // Large enough that the entropy term reaches the gradient's low bits.
  cfg.entropy_lambda = 0.3;
  cfg.hidden = {8};
  Rng init_a(31), init_b(31);
  OpponentModel model(obs_dim, m, cfg, init_a);

  struct Sample {
    std::vector<double> obs;
    int option;
  };
  std::vector<nn::Mlp> nets;
  std::vector<std::unique_ptr<nn::Adam>> opts;
  std::vector<rl::ReplayBuffer<Sample>> buffers;
  for (int j = 0; j < m; ++j) {
    nets.emplace_back(obs_dim, cfg.hidden, kNumOptions, init_b);
    opts.push_back(std::make_unique<nn::Adam>(nets.back().params(), cfg.lr));
    buffers.emplace_back(cfg.buffer_capacity);
  }
  nn::Matrix obs_m, ce_grad, probs, logp;
  std::vector<std::size_t> labels;
  auto reference_update = [&](int j, Rng& rng) {
    auto& buffer = buffers[static_cast<std::size_t>(j)];
    if (buffer.size() < cfg.min_samples) return 0.0;
    auto batch = buffer.sample(cfg.batch, rng);
    const std::size_t B = batch.size();
    auto& net = nets[static_cast<std::size_t>(j)];
    obs_m.resize(B, obs_dim);
    labels.resize(B);
    for (std::size_t b = 0; b < B; ++b) {
      std::copy(batch[b]->obs.begin(), batch[b]->obs.end(), obs_m.row_ptr(b));
      labels[b] = static_cast<std::size_t>(batch[b]->option);
    }
    const nn::Matrix& logits = net.forward(obs_m);
    const double ce = nn::softmax_cross_entropy_into(logits, labels, nullptr, ce_grad);
    nn::softmax_into(logits, probs);
    nn::log_softmax_into(logits, logp);
    const double inv_b = 1.0 / static_cast<double>(B);
    double mean_entropy = 0.0;
    for (std::size_t b = 0; b < B; ++b) {
      double h = 0.0;
      for (std::size_t c = 0; c < C; ++c) h -= probs(b, c) * logp(b, c);
      mean_entropy += h * inv_b;
      for (std::size_t c = 0; c < C; ++c) {
        ce_grad(b, c) += cfg.entropy_lambda * probs(b, c) * (logp(b, c) + h) * inv_b;
      }
    }
    net.zero_grad();
    net.backward_params(ce_grad);
    net.clip_grad_norm(10.0);
    opts[static_cast<std::size_t>(j)]->step();
    return ce - cfg.entropy_lambda * mean_entropy;
  };
  auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };

  Rng data(41), rng_model(43), rng_ref(43);
  int checked_updates = 0;
  for (int step = 0; step < 24; ++step) {
    // A few labelled observations per step, then one update of every
    // predictor.
    for (int i = 0; i < 4; ++i) {
      std::vector<double> obs(obs_dim);
      for (double& x : obs) x = data.uniform(-1.0, 1.0);
      std::vector<Option> options;
      for (int j = 0; j < m; ++j) {
        const int o = obs[static_cast<std::size_t>(j)] > 0.0 ? j : (j + 2) % kNumOptions;
        options.push_back(option_from_index(data.uniform(0.0, 1.0) < 0.8 ? o : 3));
        buffers[static_cast<std::size_t>(j)].add(
            {obs, static_cast<int>(options.back())});
      }
      model.observe(obs, options);
    }
    const std::vector<double> losses = model.update_all(rng_model);
    ASSERT_EQ(losses.size(), static_cast<std::size_t>(m));
    for (int j = 0; j < m; ++j) {
      const double ref = reference_update(j, rng_ref);
      EXPECT_TRUE(same_bits(losses[static_cast<std::size_t>(j)], ref))
          << "step " << step << " predictor " << j << ": "
          << losses[static_cast<std::size_t>(j)] << " vs " << ref;
      if (ref != 0.0) ++checked_updates;
    }

    // Predictions at a row count that changes every step.
    const std::size_t rows = 1 + static_cast<std::size_t>(step * 7) % 19;
    nn::Matrix x(rows, obs_dim);
    for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = data.uniform(-1.0, 1.0);
    nn::Matrix block;
    model.predict_all_rows(x, block);
    if (!model.prediction_ready()) continue;
    for (int j = 0; j < m; ++j) {
      nn::softmax_into(nets[static_cast<std::size_t>(j)].forward(x), probs);
      for (std::size_t b = 0; b < rows; ++b) {
        for (std::size_t c = 0; c < C; ++c) {
          EXPECT_TRUE(same_bits(block(b, static_cast<std::size_t>(j) * C + c),
                                probs(b, c)))
              << "step " << step << " predictor " << j << " row " << b;
        }
      }
    }
  }
  EXPECT_GT(checked_updates, 3 * 15);
  EXPECT_EQ(model.samples(), cfg.buffer_capacity);
  for (int j = 0; j < m; ++j) {
    const auto& got = model.net(j).params();
    const auto& want = nets[static_cast<std::size_t>(j)].params();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t p = 0; p < got.size(); ++p) {
      ASSERT_TRUE(got[p].value->same_shape(*want[p].value));
      EXPECT_EQ(std::memcmp(got[p].value->data(), want[p].value->data(),
                            got[p].value->size() * sizeof(double)),
                0)
          << "predictor " << j << " parameter " << p;
    }
  }
}

// ------------------------------------------------------ HighLevelAgent ----

HighLevelConfig fast_high() {
  HighLevelConfig cfg;
  cfg.batch = 16;
  cfg.warmup_transitions = 16;
  return cfg;
}

TEST(HighLevelAgent, SelectsValidOptions) {
  Rng rng(6);
  HighLevelAgent agent(4, 2, fast_high(), rng);
  std::vector<double> obs = {0.1, 0.2, 0.3, 0.4};
  std::vector<double> block(2 * kNumOptions, 0.25);
  for (int i = 0; i < 50; ++i) {
    int o = agent.select_option(obs, block, rng, /*explore=*/true);
    EXPECT_GE(o, 0);
    EXPECT_LT(o, kNumOptions);
  }
}

TEST(HighLevelAgent, GreedyIsArgmaxOfProbs) {
  Rng rng(7);
  HighLevelConfig cfg = fast_high();
  cfg.eps_start = 0.0;  // pure policy
  HighLevelAgent agent(4, 1, cfg, rng);
  std::vector<double> obs = {0.5, -0.5, 0.1, 0.0};
  std::vector<double> block(kNumOptions, 0.25);
  auto probs = agent.option_probs(obs, block);
  int greedy = agent.select_option(obs, block, rng, /*explore=*/false);
  EXPECT_EQ(greedy, static_cast<int>(std::max_element(probs.begin(), probs.end()) -
                                     probs.begin()));
}

TEST(HighLevelAgent, NoUpdateBeforeWarmup) {
  Rng rng(8);
  HighLevelAgent agent(4, 1, fast_high(), rng);
  OpponentModel opp(4, 1, OpponentModelConfig{}, rng);
  EXPECT_FALSE(agent.update(opp, rng).updated);
}

TEST(HighLevelAgent, UpdateRunsAfterWarmup) {
  Rng rng(9);
  HighLevelAgent agent(4, 1, fast_high(), rng);
  OpponentModel opp(4, 1, OpponentModelConfig{}, rng);
  for (int i = 0; i < 32; ++i) {
    agent.store({{0.1, 0.2, 0.3, 0.4},
                 std::vector<double>(kNumOptions, 0.25),
                 static_cast<int>(rng.index(kNumOptions)),
                 rng.normal(),
                 0.95,
                 {0.2, 0.3, 0.4, 0.5},
                 i % 5 == 0});
  }
  auto stats = agent.update(opp, rng);
  EXPECT_TRUE(stats.updated);
  EXPECT_GE(stats.critic_loss, 0.0);
  EXPECT_GT(stats.actor_entropy, 0.0);
}

TEST(HighLevelAgent, CriticLearnsOptionValues) {
  // One state, option 2 always pays +1 (terminal), others pay −1: after
  // training, the greedy policy must pick option 2.
  Rng rng(10);
  HighLevelConfig cfg = fast_high();
  cfg.eps_start = 0.0;
  cfg.entropy_coef = 0.005;
  HighLevelAgent agent(2, 1, cfg, rng);
  OpponentModel opp(2, 1, OpponentModelConfig{}, rng);
  std::vector<double> obs = {0.3, 0.7};
  std::vector<double> block(kNumOptions, 0.25);
  for (int i = 0; i < 400; ++i) {
    const int o = static_cast<int>(rng.index(kNumOptions));
    agent.store({obs, block, o, o == 2 ? 1.0 : -1.0, 0.95, obs, /*done=*/true});
    agent.update(opp, rng);
  }
  EXPECT_EQ(agent.select_option(obs, block, rng, /*explore=*/false), 2);
}

TEST(HighLevelAgent, MaxBootstrapPropagatesValueAgainstThePolicy) {
  // Two-state chain: state A, option 2 leads (done-free) to state B where
  // option 0 pays +10 on termination; every other option pays 0. The actor
  // is never trained toward option 2 in A (we only run critic updates with
  // a frozen adversarial actor via high entropy), yet with the max
  // bootstrap Q(A, 2) must approach γ^c·10.
  Rng rng(20);
  HighLevelConfig cfg = fast_high();
  cfg.bootstrap = Bootstrap::kMax;
  cfg.lr = 0.01;
  HighLevelAgent agent(1, 1, cfg, rng);
  OpponentModel opp(1, 1, OpponentModelConfig{}, rng);

  const std::vector<double> A = {0.0}, B = {1.0};
  const std::vector<double> block(kNumOptions, 0.25);
  // γ^c = 0.7: looping one extra option in A must visibly cost value.
  for (int i = 0; i < 600; ++i) {
    const int o = static_cast<int>(rng.index(kNumOptions));
    // From A: option 2 transitions to B, others loop in A, reward 0.
    agent.store({A, block, o, 0.0, 0.7, o == 2 ? B : A, false});
    // From B: option 0 terminates with +10, others loop with 0.
    const int o2 = static_cast<int>(rng.index(kNumOptions));
    agent.store({B, block, o2, o2 == 0 ? 10.0 : 0.0, 0.7, B, o2 == 0});
    agent.update(opp, rng);
  }
  // Probe the critic directly.
  auto q_of = [&](const std::vector<double>& s, int o) {
    std::vector<double> in = s;
    for (int a = 0; a < kNumOptions; ++a) in.push_back(a == o ? 1.0 : 0.0);
    in.insert(in.end(), block.begin(), block.end());
    return agent.critic().forward1(in)[0];
  };
  // True values: Q(B,0) = 10; Q(A,2) = 0.7·10 = 7; Q(A,loop) = 0.7·7 = 4.9.
  EXPECT_GT(q_of(B, 0), 8.0);           // terminal payoff learned
  EXPECT_GT(q_of(A, 2), 5.5);           // propagated through the max bootstrap
  EXPECT_GT(q_of(A, 2), q_of(A, 1) + 1.0);  // beats the looping options
}

// ----------------------------------------------------------- HeroAgent ----

sim::LaneWorld coop_world() {
  return sim::LaneWorld(sim::cooperative_lane_change().config);
}

TEST(HeroAgent, LaneChangeTargetsOtherLane) {
  Rng rng(14);
  auto world = coop_world();
  world.reset(rng);
  HeroAgent agent(world.high_level_obs_dim(), 2, fast_high(), OpponentModelConfig{},
                  TerminationConfig{}, rng);
  // Force a lane-change selection by trying until it happens (ε start 0.5).
  bool saw_change = false;
  for (int i = 0; i < 200 && !saw_change; ++i) {
    agent.select_initial(world, 1, rng, true);
    if (agent.execution().option == Option::kLaneChange) {
      saw_change = true;
      // Vehicle 1 (the merger) starts in lane 0 → target must be lane 1.
      EXPECT_EQ(agent.execution().target_lane, 1);
    }
  }
  EXPECT_TRUE(saw_change);
}

// Three exploring width-1 BatchedRollout episodes of the cooperative lane
// change, of 1, 2 and 3 steps, on one episode stream, with every option
// ending after 2 steps. α = 0 with shared travel gives every learner the same
// reward r_t per step, so team_reward after T steps is r_0 + … + r_{T−1}; the
// episodes differ only in `done`, which recovers each r_t.
struct SemiMdpRun {
  double gamma = 0.0;
  int agents = 0;
  std::vector<double> r;  // r_0, r_1, r_2
  BatchedEpisode ep;      // the 3-step episode
};

SemiMdpRun semi_mdp_run() {
  auto base = sim::cooperative_lane_change();
  base.config.alpha = 0.0;
  base.config.shared_travel = true;
  HeroConfig cfg;
  cfg.high.gamma = 0.9;
  cfg.skill.termination.synchronous = true;
  cfg.skill.termination.in_lane_duration = 2;
  Rng rng(51);
  HeroTrainer trainer(base, cfg, rng);

  SemiMdpRun run;
  run.gamma = cfg.high.gamma;
  run.agents = trainer.num_agents();
  double prev = 0.0;
  for (int steps = 1; steps <= 3; ++steps) {
    auto sc = base;
    sc.config.max_steps = steps;
    BatchedRollout rollout(sc, cfg.high, cfg.skill.termination, trainer.skills(),
                           trainer.agents(), 1);
    rollout.run_round(/*root=*/7, /*first=*/0, /*count=*/1, /*observing=*/false);
    run.ep = rollout.episode(0);
    EXPECT_EQ(run.ep.stats.steps, steps);
    run.r.push_back(run.ep.stats.team_reward - prev);
    prev = run.ep.stats.team_reward;
  }
  return run;
}

TEST(HeroAgent, SemiMdpRewardAccumulation) {
  const auto run = semi_mdp_run();
  const double g = run.gamma;
  ASSERT_EQ(run.r.size(), 3u);
  ASSERT_GT(run.r[0], 0.0);
  ASSERT_EQ(run.ep.high.size(), static_cast<std::size_t>(run.agents));
  for (const auto& ts : run.ep.high) {
    ASSERT_EQ(ts.size(), 2u);
    // Steps 0–1: R = r_0 + γ·r_1, γ^c = γ².
    EXPECT_NEAR(ts[0].reward, run.r[0] + g * run.r[1], 1e-9);
    EXPECT_NEAR(ts[0].gamma_pow, g * g, 1e-12);
    // Step 2: R = r_2, γ^c = γ.
    EXPECT_NEAR(ts[1].reward, run.r[2], 1e-9);
    EXPECT_NEAR(ts[1].gamma_pow, g, 1e-12);
  }
}

TEST(HeroAgent, ReselectionFinalizesPendingTransition) {
  const auto run = semi_mdp_run();
  ASSERT_EQ(run.ep.high.size(), static_cast<std::size_t>(run.agents));
  for (const auto& ts : run.ep.high) {
    ASSERT_EQ(ts.size(), 2u);
    // The β_o re-selection after step 1 closes the first option's transition
    // without ending the episode, and the next one starts where it stopped.
    EXPECT_FALSE(ts[0].done);
    EXPECT_EQ(ts[0].next_obs, ts[1].obs);
    // The episode end closes the second.
    EXPECT_TRUE(ts[1].done);
  }
  EXPECT_EQ(run.ep.switches, run.agents);
}

// The high-level update's hot path replaced per-row predict_all_into calls
// with one batched predict_all_rows per minibatch; the swap is only legal if
// the two produce bitwise-identical blocks (the update math, and therefore
// the determinism contract, rides on it).
TEST(OpponentModel, BatchedRowsMatchPerRowPredictions) {
  Rng rng(21);
  const std::size_t obs_dim = 3;
  OpponentModelConfig cfg;
  cfg.min_samples = 16;
  OpponentModel model(obs_dim, 2, cfg, rng);

  auto check_batch_matches = [&](const char* phase) {
    const std::size_t B = 7;
    nn::Matrix rows(B, obs_dim);
    std::vector<double> obs(obs_dim);
    Rng data(77);
    for (std::size_t b = 0; b < B; ++b) {
      for (std::size_t d = 0; d < obs_dim; ++d) {
        rows.row_ptr(b)[d] = data.uniform(-1.0, 1.0);
      }
    }
    nn::Matrix batched;
    model.predict_all_rows(rows, batched);
    ASSERT_EQ(batched.rows(), B);
    ASSERT_EQ(batched.cols(), model.feature_dim());
    std::vector<double> row(model.feature_dim());
    for (std::size_t b = 0; b < B; ++b) {
      std::copy(rows.row_ptr(b), rows.row_ptr(b) + obs_dim, obs.begin());
      model.predict_all_into(obs, row.data());
      for (std::size_t f = 0; f < row.size(); ++f) {
        // Bitwise, not approximate: the batched kernel must be a pure
        // reshape of the per-row computation.
        EXPECT_EQ(batched.row_ptr(b)[f], row[f]) << phase << " b=" << b << " f=" << f;
      }
    }
  };

  check_batch_matches("uniform-prior");  // below min_samples: both uniform

  Rng data(5);
  for (int i = 0; i < 200; ++i) {
    const double x = data.uniform(-1.0, 1.0);
    model.observe({x, 0.0, 0.5}, {x > 0 ? Option::kLaneChange : Option::kSlowDown,
                                  x > 0 ? Option::kAccelerate : Option::kKeepLane});
    model.update_all(data);
  }
  check_batch_matches("trained");
}

}  // namespace
}  // namespace hero::core
