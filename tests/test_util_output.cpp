// Tests for the table, chart, and CSV rendering helpers, and the file
// publisher every output goes through.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <sstream>

#include "util/chart.hpp"
#include "util/csv.hpp"
#include "util/file.hpp"
#include "util/table.hpp"

namespace wss::util {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table t({"Name", "Count"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "12345"});
  const std::string out = t.render();
  EXPECT_NE(out.find("Name   | Count"), std::string::npos);
  EXPECT_NE(out.find("longer | 12345"), std::string::npos);
  // Right-aligned numeric column.
  EXPECT_NE(out.find("a      |     1"), std::string::npos);
}

TEST(Table, TitleAndSeparator) {
  Table t({"A"});
  t.set_title("My Table");
  t.add_row({"x"});
  t.add_separator();
  t.add_row({"y"});
  const std::string out = t.render();
  EXPECT_EQ(out.rfind("My Table", 0), 0u);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, RejectsBadArity) {
  Table t({"A", "B"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
  EXPECT_THROW(t.set_align(5, Align::kLeft), std::out_of_range);
}

TEST(Table, AlignOverride) {
  Table t({"A", "B"});
  t.set_align(1, Align::kLeft);
  t.add_row({"x", "y"});
  EXPECT_NE(t.render().find("x | y"), std::string::npos);
}

TEST(BarChart, ScalesToMax) {
  const std::string out = bar_chart({"a", "b"}, {1.0, 2.0}, 10);
  // The larger bar has 10 marks, the smaller 5.
  EXPECT_NE(out.find("##########"), std::string::npos);
  EXPECT_NE(out.find("#####"), std::string::npos);
  EXPECT_TRUE(bar_chart({}, {}, 10).empty());
}

TEST(ColumnChart, HasAxisAndHeight) {
  const std::string out = column_chart({1.0, 3.0, 2.0}, 4);
  // 4 data rows plus the axis line.
  int lines = 0;
  for (char c : out) lines += c == '\n' ? 1 : 0;
  EXPECT_GE(lines, 5);
  EXPECT_NE(out.find('#'), std::string::npos);
  EXPECT_TRUE(column_chart({}, 4).empty());
}

TEST(Scatter, PlotsPoints) {
  const std::string out =
      scatter({0.0, 1.0, 2.0}, {0.0, 1.0, 4.0}, 20, 8, '*');
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(out.find("x: ["), std::string::npos);
  EXPECT_TRUE(scatter({}, {}, 20, 8).empty());
  EXPECT_TRUE(scatter({1.0}, {1.0, 2.0}, 20, 8).empty());  // mismatched
}

TEST(StripPlot, OneRowPerLabel) {
  const std::string out = strip_plot({0.0, 5.0, 9.0}, {0, 1, 0},
                                     {"GM_PAR", "GM_LANAI"}, 30);
  EXPECT_NE(out.find("GM_PAR"), std::string::npos);
  EXPECT_NE(out.find("GM_LANAI"), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
}

TEST(Csv, EscapesSpecials) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesRows) {
  std::ostringstream os;
  CsvWriter w(os);
  w.row({"a", "b,c"});
  w.row_numeric({1.5, 2.0});
  EXPECT_EQ(os.str(), "a,\"b,c\"\n1.5,2\n");
}

class PublishFile : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("wss_publish_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::size_t tmp_files() const {
    std::size_t n = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir_)) {
      n += e.path().extension() == ".tmp";
    }
    return n;
  }

  std::filesystem::path dir_;
};

TEST_F(PublishFile, ReplacesAnExistingFileWhole) {
  const std::string path = (dir_ / "out.txt").string();
  publish_file(path, "a much longer first version\n");
  publish_file(path, "short\n");
  EXPECT_EQ(read_file(path), "short\n");
  EXPECT_EQ(tmp_files(), 0u);
}

TEST_F(PublishFile, FailedRenameThrowsOneLineAndLeavesNoTmp) {
  // The target is an existing directory: the tmp file is written, the
  // rename over it fails, and the tmp file is removed again.
  const std::string path = (dir_ / "taken").string();
  std::filesystem::create_directories(path);
  try {
    publish_file(path, "bytes");
    FAIL() << "publish over a directory succeeded";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cannot publish " + path), std::string::npos) << what;
    EXPECT_EQ(what.find('\n'), std::string::npos) << what;
  }
  EXPECT_TRUE(std::filesystem::is_directory(path));
  EXPECT_EQ(tmp_files(), 0u);
}

}  // namespace
}  // namespace wss::util
