#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <span>

namespace cgx::tensor {
namespace {

TEST(Shape, Numel) {
  EXPECT_EQ(shape_numel({}), 0u);
  EXPECT_EQ(shape_numel({5}), 5u);
  EXPECT_EQ(shape_numel({2, 3, 4}), 24u);
}

TEST(Shape, ToString) {
  EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]");
  EXPECT_EQ(shape_to_string({}), "[]");
}

TEST(Tensor, ConstructZeroed) {
  Tensor t({3, 4});
  EXPECT_EQ(t.numel(), 12u);
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.dim(0), 3u);
  EXPECT_EQ(t.dim(1), 4u);
  for (float v : t.data()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, FillConstructor) {
  Tensor t({5}, 2.5f);
  for (float v : t.data()) EXPECT_EQ(v, 2.5f);
}

TEST(Tensor, TwoDimensionalIndexing) {
  Tensor t({2, 3});
  t.at(1, 2) = 7.0f;
  EXPECT_EQ(t.at(5), 7.0f);  // row-major: 1*3 + 2
  EXPECT_EQ(t.at(1, 2), 7.0f);
}

TEST(Tensor, CloneIsDeep) {
  Tensor t({4}, 1.0f);
  Tensor c = t.clone();
  c.at(0) = 9.0f;
  EXPECT_EQ(t.at(0), 1.0f);
  EXPECT_EQ(c.at(0), 9.0f);
}

TEST(Tensor, ResetReusesStorageUpToHighWater) {
  Tensor t;
  t.reset({4, 8});
  EXPECT_EQ(t.shape(), (Shape{4, 8}));
  EXPECT_EQ(t.numel(), 32u);
  const float* storage = t.data().data();
  // Shrinking and growing back within the high-water size keep the storage.
  t.reset({2, 3, 5});
  EXPECT_EQ(t.shape(), (Shape{2, 3, 5}));
  EXPECT_EQ(t.numel(), 30u);
  EXPECT_EQ(t.data().data(), storage);
  t.reset({4, 8});
  EXPECT_EQ(t.data().data(), storage);
  // Beyond it, the storage grows.
  t.reset({5, 8});
  EXPECT_EQ(t.numel(), 40u);
  t.reset({});
  EXPECT_EQ(t.numel(), 0u);
  EXPECT_EQ(t.rank(), 0u);
}

TEST(Tensor, ResetTakesLeadingDimsPlusMore) {
  const Tensor x({2, 3, 7});
  Tensor t;
  t.reset(std::span<const std::size_t>(x.shape()).first(2), {11});
  EXPECT_EQ(t.shape(), (Shape{2, 3, 11}));
  t.reset(x.shape(), {4});
  EXPECT_EQ(t.shape(), (Shape{2, 3, 7, 4}));
  // A prefix of the tensor's own shape is taken in place.
  t.reset(std::span<const std::size_t>(t.shape()).first(1), {9});
  EXPECT_EQ(t.shape(), (Shape{2, 9}));
  t.reset(t.shape());
  EXPECT_EQ(t.shape(), (Shape{2, 9}));
}

TEST(Tensor, ResetZeroClearsStaleValues) {
  Tensor t({3, 3}, 5.0f);
  t.reset_zero({2, 4});
  EXPECT_EQ(t.shape(), (Shape{2, 4}));
  for (float v : t.data()) EXPECT_EQ(v, 0.0f);
  t.fill(1.0f);
  t.reset_zero(t.shape(), {1});
  EXPECT_EQ(t.shape(), (Shape{2, 4, 1}));
  for (float v : t.data()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, CopyFromTakesShapeAndValues) {
  Tensor src({2, 3});
  for (std::size_t i = 0; i < src.numel(); ++i) src.at(i) = float(i);
  Tensor dst({10}, -1.0f);
  const float* storage = dst.data().data();
  dst.copy_from(src);
  EXPECT_EQ(dst.shape(), src.shape());
  EXPECT_EQ(dst.data().data(), storage);  // 6 <= 10: no growth
  for (std::size_t i = 0; i < src.numel(); ++i) EXPECT_EQ(dst.at(i), float(i));
  dst.copy_from(dst);
  EXPECT_EQ(dst.at(5), 5.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 6});
  for (std::size_t i = 0; i < t.numel(); ++i) t.at(i) = float(i);
  t.reshape({3, 4});
  EXPECT_EQ(t.dim(0), 3u);
  EXPECT_EQ(t.at(2, 3), 11.0f);
}

TEST(Tensor, FillUniformWithinBounds) {
  util::Rng rng(1);
  Tensor t({10000});
  t.fill_uniform(rng, -2.0f, 3.0f);
  for (float v : t.data()) {
    EXPECT_GE(v, -2.0f);
    EXPECT_LE(v, 3.0f);
  }
}

TEST(Tensor, FillGaussianStats) {
  util::Rng rng(2);
  Tensor t({100000});
  t.fill_gaussian(rng, 1.0f, 2.0f);
  double sum = 0, sum_sq = 0;
  for (float v : t.data()) {
    sum += v;
    sum_sq += double(v) * v;
  }
  const double mean = sum / t.numel();
  const double var = sum_sq / t.numel() - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

}  // namespace
}  // namespace cgx::tensor
