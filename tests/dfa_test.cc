#include <gtest/gtest.h>

#include <random>

#include "dfa/dfa.h"
#include "dfa/formats.h"
#include "dfa/state_vector.h"

namespace parparaw {
namespace {

TEST(StateVectorTest, IdentityMapsEachStateToItself) {
  StateVector v = StateVector::Identity(6);
  EXPECT_EQ(v.size(), 6);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(v.Get(i), i);
}

TEST(StateVectorTest, ComposeAppliesLeftThenRight) {
  // a maps i -> (i+1) mod 4; b maps i -> 2i mod 4.
  StateVector a = StateVector::Identity(4);
  StateVector b = StateVector::Identity(4);
  for (int i = 0; i < 4; ++i) {
    a.Set(i, static_cast<uint8_t>((i + 1) % 4));
    b.Set(i, static_cast<uint8_t>((2 * i) % 4));
  }
  const StateVector ab = Compose(a, b);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ab.Get(i), (2 * ((i + 1) % 4)) % 4);
  }
}

TEST(StateVectorTest, ComposeIsAssociative) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    StateVector a = StateVector::Identity(6);
    StateVector b = StateVector::Identity(6);
    StateVector c = StateVector::Identity(6);
    for (int i = 0; i < 6; ++i) {
      a.Set(i, static_cast<uint8_t>(rng() % 6));
      b.Set(i, static_cast<uint8_t>(rng() % 6));
      c.Set(i, static_cast<uint8_t>(rng() % 6));
    }
    EXPECT_TRUE(Compose(Compose(a, b), c) == Compose(a, Compose(b, c)));
  }
}

TEST(StateVectorTest, IdentityIsNeutral) {
  StateVector id = StateVector::Identity(5);
  StateVector a = StateVector::Identity(5);
  for (int i = 0; i < 5; ++i) a.Set(i, static_cast<uint8_t>((i * 2 + 1) % 5));
  EXPECT_TRUE(Compose(id, a) == a);
  EXPECT_TRUE(Compose(a, id) == a);
}

TEST(DfaBuilderTest, RejectsEmptyAndBuildsPastTheRegisterBudget) {
  DfaBuilder empty;
  EXPECT_FALSE(empty.Build().ok());

  // 17 states: one past the register budget, so no packed rows, but the
  // next-state and flag tables cover every state.
  DfaBuilder wide;
  for (int i = 0; i < 17; ++i) wide.AddState("s" + std::to_string(i), true);
  const int g = wide.AddSymbol('x');
  for (int i = 0; i < 17; ++i) {
    wide.SetTransition(i, g, (i + 1) % 17, kSymbolFieldDelimiter);
    wide.SetDefaultTransition(i, i, kSymbolData);
  }
  auto dfa = wide.Build();
  ASSERT_TRUE(dfa.ok()) << dfa.status().ToString();
  EXPECT_FALSE(dfa->fits_register_budget());
  EXPECT_EQ(dfa->NextStateForSymbol(16, 'x'), 0);
  EXPECT_EQ(dfa->NextStateForSymbol(16, 'y'), 16);
  EXPECT_EQ(dfa->Flags(16, g), kSymbolFieldDelimiter);
  const std::string input(20, 'x');
  EXPECT_EQ(dfa->Run(0, reinterpret_cast<const uint8_t*>(input.data()),
                     input.size()),
            3);
}

TEST(DfaBuilderTest, RejectsMissingTransition) {
  DfaBuilder b;
  const int s0 = b.AddState("s0", true);
  b.AddSymbol('x');
  b.SetDefaultTransition(s0, s0, 0);
  // Transition for ('x', s0) never set.
  EXPECT_FALSE(b.Build().ok());
}

TEST(DfaBuilderTest, RejectsDuplicateSymbols) {
  DfaBuilder b;
  const int s0 = b.AddState("s0", true);
  const int g1 = b.AddSymbol('x');
  const int g2 = b.AddSymbol('x');
  b.SetTransition(s0, g1, s0, 0);
  b.SetTransition(s0, g2, s0, 0);
  b.SetDefaultTransition(s0, s0, 0);
  EXPECT_FALSE(b.Build().ok());
}

Dfa MakeToggleDfa() {
  // Two states toggled by 'x'; everything else self-loops.
  DfaBuilder b;
  const int s0 = b.AddState("even", true);
  const int s1 = b.AddState("odd", false);
  const int gx = b.AddSymbol('x');
  b.SetTransition(s0, gx, s1, kSymbolControl);
  b.SetTransition(s1, gx, s0, kSymbolControl);
  b.SetDefaultTransition(s0, s0, kSymbolData);
  b.SetDefaultTransition(s1, s1, kSymbolData);
  return *b.Build();
}

TEST(DfaTest, RunFollowsTransitions) {
  const Dfa dfa = MakeToggleDfa();
  const std::string input = "axbxcx";
  EXPECT_EQ(dfa.Run(0, reinterpret_cast<const uint8_t*>(input.data()), 6), 1);
  EXPECT_EQ(dfa.Run(0, reinterpret_cast<const uint8_t*>(input.data()), 4), 0);
}

TEST(DfaTest, TransitionVectorTracksAllStartStates) {
  const Dfa dfa = MakeToggleDfa();
  const std::string chunk = "x";
  const StateVector v = dfa.TransitionVector(
      reinterpret_cast<const uint8_t*>(chunk.data()), chunk.size());
  EXPECT_EQ(v.Get(0), 1);
  EXPECT_EQ(v.Get(1), 0);
}

TEST(DfaTest, TransitionVectorComposesLikeFullRun) {
  // Splitting an input anywhere and composing the two chunks' vectors must
  // equal the whole input's vector — the core §3.1 property.
  auto format = Rfc4180Format();
  ASSERT_TRUE(format.ok());
  const Dfa& dfa = format->dfa;
  const std::string input = "a,\"b\"\"x,\n\",c\n\"open";
  const auto* data = reinterpret_cast<const uint8_t*>(input.data());
  const StateVector whole = dfa.TransitionVector(data, input.size());
  for (size_t split = 0; split <= input.size(); ++split) {
    const StateVector left = dfa.TransitionVector(data, split);
    const StateVector right =
        dfa.TransitionVector(data + split, input.size() - split);
    EXPECT_TRUE(Compose(left, right) == whole) << "split=" << split;
  }
}

TEST(DfaTest, StepMatchesNextStateForSymbol) {
  auto format = Rfc4180Format();
  ASSERT_TRUE(format.ok());
  const Dfa& dfa = format->dfa;
  std::mt19937 rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    const uint8_t symbol = static_cast<uint8_t>(rng() % 256);
    StateVector v = StateVector::Identity(dfa.num_states());
    dfa.Step(&v, symbol);
    for (int s = 0; s < dfa.num_states(); ++s) {
      EXPECT_EQ(v.Get(s), dfa.NextStateForSymbol(s, symbol));
    }
  }
}

}  // namespace
}  // namespace parparaw
