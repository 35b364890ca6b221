#include "carbon/lp/problem.hpp"

#include <gtest/gtest.h>

#include <array>
#include <limits>

namespace carbon::lp {
namespace {

TEST(Problem, AddVariableAndConstraintShapes) {
  Problem p;
  EXPECT_EQ(p.add_variable(1.0, 0.0, 1.0), 0u);
  EXPECT_EQ(p.add_variable(2.0, 0.0, kInfinity), 1u);
  EXPECT_EQ(p.add_constraint({1.0, 2.0}, RowSense::kLessEqual, 3.0), 0u);
  EXPECT_EQ(p.num_vars(), 2u);
  EXPECT_EQ(p.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(p.coefficient(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(p.coefficient(0, 1), 2.0);
  EXPECT_EQ(p.num_nonzeros(), 2u);
  EXPECT_TRUE(p.validate().empty());
}

TEST(Problem, ShortRowIsZeroPadded) {
  Problem p;
  p.add_variable(1.0, 0.0, 1.0);
  p.add_variable(1.0, 0.0, 1.0);
  p.add_constraint({5.0}, RowSense::kEqual, 5.0);  // second coeff implied 0
  EXPECT_DOUBLE_EQ(p.coefficient(0, 1), 0.0);
  EXPECT_EQ(p.columns[1].nnz(), 0u);  // implied zero is not stored
  EXPECT_TRUE(p.validate().empty());
}

TEST(Problem, DenseRowZerosAreNotStored) {
  Problem p;
  p.add_variable(1.0, 0.0, 1.0);
  p.add_variable(1.0, 0.0, 1.0);
  p.add_variable(1.0, 0.0, 1.0);
  p.add_constraint({1.0, 0.0, 3.0}, RowSense::kGreaterEqual, 1.0);
  EXPECT_EQ(p.num_nonzeros(), 2u);
  EXPECT_DOUBLE_EQ(p.coefficient(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(p.coefficient(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(p.coefficient(0, 2), 3.0);
  EXPECT_TRUE(p.validate().empty());
}

TEST(Problem, SparseConstraintOverload) {
  Problem p;
  p.add_variable(1.0, 0.0, 1.0);
  p.add_variable(1.0, 0.0, 1.0);
  p.add_variable(1.0, 0.0, 1.0);
  const std::array<RowEntry, 2> row0 = {{{0, 2.0}, {2, 4.0}}};
  const std::array<RowEntry, 2> row1 = {{{1, 5.0}, {2, 0.0}}};  // 0 dropped
  EXPECT_EQ(p.add_constraint(row0, RowSense::kGreaterEqual, 1.0), 0u);
  EXPECT_EQ(p.add_constraint(row1, RowSense::kLessEqual, 7.0), 1u);
  EXPECT_EQ(p.num_nonzeros(), 3u);
  EXPECT_DOUBLE_EQ(p.coefficient(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(p.coefficient(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(p.coefficient(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(p.coefficient(1, 2), 0.0);
  EXPECT_TRUE(p.validate().empty());
}

TEST(Problem, SparseAndDenseConstraintsBuildIdenticalColumns) {
  Problem dense;
  Problem sparse;
  for (int j = 0; j < 3; ++j) {
    dense.add_variable(1.0, 0.0, 1.0);
    sparse.add_variable(1.0, 0.0, 1.0);
  }
  dense.add_constraint({1.0, 0.0, 2.0}, RowSense::kGreaterEqual, 1.0);
  dense.add_constraint({0.0, 3.0, 4.0}, RowSense::kGreaterEqual, 2.0);
  const std::array<RowEntry, 2> row0 = {{{0, 1.0}, {2, 2.0}}};
  const std::array<RowEntry, 2> row1 = {{{1, 3.0}, {2, 4.0}}};
  sparse.add_constraint(row0, RowSense::kGreaterEqual, 1.0);
  sparse.add_constraint(row1, RowSense::kGreaterEqual, 2.0);
  ASSERT_EQ(dense.columns.size(), sparse.columns.size());
  for (std::size_t j = 0; j < dense.columns.size(); ++j) {
    EXPECT_EQ(dense.columns[j].rows, sparse.columns[j].rows);
    EXPECT_EQ(dense.columns[j].values, sparse.columns[j].values);
  }
}

TEST(Problem, VariablesAddedAfterConstraints) {
  Problem p;
  p.add_variable(1.0, 0.0, 1.0);
  p.add_constraint({1.0}, RowSense::kGreaterEqual, 0.5);
  p.add_variable(2.0, 0.0, 1.0);  // new column starts empty
  EXPECT_EQ(p.columns[1].nnz(), 0u);
  EXPECT_DOUBLE_EQ(p.coefficient(0, 1), 0.0);
  EXPECT_TRUE(p.validate().empty());
}

TEST(Problem, ValidateCatchesBadBounds) {
  Problem p;
  p.add_variable(1.0, 2.0, 1.0);  // lower > upper
  EXPECT_FALSE(p.validate().empty());
}

TEST(Problem, ValidateCatchesInfiniteLower) {
  Problem p;
  p.add_variable(1.0, -kInfinity, 1.0);
  EXPECT_FALSE(p.validate().empty());
}

TEST(Problem, ValidateCatchesNonFiniteRhs) {
  Problem p;
  p.add_variable(1.0, 0.0, 1.0);
  p.add_constraint({1.0}, RowSense::kLessEqual, kInfinity);
  EXPECT_FALSE(p.validate().empty());
}

TEST(Problem, ValidateCatchesRaggedColumn) {
  Problem p;
  p.add_variable(1.0, 0.0, 1.0);
  p.add_constraint({1.0}, RowSense::kLessEqual, 1.0);
  p.columns[0].values.push_back(9.0);  // value with no row index
  EXPECT_FALSE(p.validate().empty());
}

TEST(Problem, ValidateCatchesOutOfRangeRowIndex) {
  Problem p;
  p.add_variable(1.0, 0.0, 1.0);
  p.add_constraint({1.0}, RowSense::kLessEqual, 1.0);
  p.columns[0].push_back(5, 9.0);  // row 5 does not exist
  EXPECT_FALSE(p.validate().empty());
}

TEST(Problem, ValidateCatchesUnsortedRowIndices) {
  Problem p;
  p.add_variable(1.0, 0.0, 1.0);
  p.add_constraint({1.0}, RowSense::kLessEqual, 1.0);
  p.add_constraint({2.0}, RowSense::kLessEqual, 1.0);
  std::swap(p.columns[0].rows[0], p.columns[0].rows[1]);
  EXPECT_FALSE(p.validate().empty());
}

TEST(Problem, ValidateCatchesNonFiniteCoefficient) {
  for (const double bad : {kInfinity, -kInfinity,
                           std::numeric_limits<double>::quiet_NaN()}) {
    Problem p;
    p.add_variable(1.0, 0.0, 1.0);
    p.add_variable(1.0, 0.0, 1.0);
    p.add_constraint({1.0, 1.0}, RowSense::kGreaterEqual, 1.0);
    p.add_constraint({2.0, 3.0}, RowSense::kGreaterEqual, 1.0);
    p.columns[1].values[1] = bad;
    EXPECT_EQ(p.validate(), "column 1 has a non-finite coefficient in row 1")
        << bad;
  }
}

TEST(Problem, ValidateCatchesNaNUpperBound) {
  Problem p;
  p.add_variable(1.0, 0.0, 1.0);
  p.add_variable(1.0, 0.0, std::numeric_limits<double>::quiet_NaN());
  p.add_constraint({1.0, 1.0}, RowSense::kGreaterEqual, 1.0);
  EXPECT_EQ(p.validate(), "variable 1 has a NaN upper bound");
  // An infinite upper bound is how a free-above variable is written.
  p.upper[1] = kInfinity;
  EXPECT_TRUE(p.validate().empty());
}

TEST(Problem, ValidateCatchesNonFiniteObjective) {
  for (const double bad : {kInfinity, -kInfinity,
                           std::numeric_limits<double>::quiet_NaN()}) {
    Problem p;
    p.add_variable(1.0, 0.0, 1.0);
    p.add_variable(bad, 0.0, 1.0);
    p.add_constraint({1.0, 1.0}, RowSense::kGreaterEqual, 1.0);
    EXPECT_EQ(p.validate(), "variable 1 has a non-finite objective coefficient")
        << bad;
  }
}

TEST(Problem, StatusStrings) {
  EXPECT_STREQ(to_string(SolveStatus::kOptimal), "optimal");
  EXPECT_STREQ(to_string(SolveStatus::kInfeasible), "infeasible");
  EXPECT_STREQ(to_string(SolveStatus::kUnbounded), "unbounded");
  EXPECT_STREQ(to_string(SolveStatus::kIterationLimit), "iteration-limit");
  EXPECT_STREQ(to_string(SolveStatus::kNumericalFailure),
               "numerical-failure");
}

TEST(Solution, OptimalFlag) {
  Solution s;
  EXPECT_FALSE(s.optimal());
  s.status = SolveStatus::kOptimal;
  EXPECT_TRUE(s.optimal());
}

}  // namespace
}  // namespace carbon::lp
