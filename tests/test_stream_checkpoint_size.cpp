// Size of a checkpoint taken after the Table 2 compression sample has
// filled: the sample travels as its raw size and fraction, so what is
// left -- source names, filter and predict state, the obs counters --
// stays under 100 kB on every system.
//
// A checkpoint carries the process-wide obs counters, and a stream
// registers per-category counters for its system. So each system
// streams in its own forked child, as each `wss stream` is its own
// process, and this binary holds no other test that could register
// counters in the parent first.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <sstream>

#include "sim/generator.hpp"
#include "stream/pipeline.hpp"

namespace wss {
namespace {

/// The size of the checkpoint `wss stream --in --predict` saves at the
/// end of `wss generate --cap 20000 --chatter 200000 --seed 1`'s log
/// for `system`, or 0 when the child fails or the log is shorter than
/// the sample.
std::uint64_t checkpoint_size_in_own_process(parse::SystemId system) {
  int fds[2];
  if (::pipe(fds) != 0) return 0;
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    sim::SimOptions opts;
    opts.seed = 1;
    opts.category_cap = 20000;
    opts.chatter_events = 200000;
    const sim::Simulator simulator(system, opts);
    stream::StreamPipelineOptions popts;
    popts.strict_order = false;
    popts.predict.enabled = true;
    stream::StreamPipeline pipeline(system, popts);
    simulator.for_each_line(
        [&](std::string_view l) { pipeline.ingest_line(l); });
    pipeline.finish();
    std::stringstream checkpoint;
    pipeline.save(checkpoint);
    const std::uint64_t size =
        pipeline.events() > stream::kCompressionSampleLines
            ? checkpoint.str().size()
            : 0;
    const bool sent = ::write(fds[1], &size, sizeof size) == sizeof size;
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  std::uint64_t size = 0;
  if (pid < 0 || ::read(fds[0], &size, sizeof size) != sizeof size) size = 0;
  ::close(fds[0]);
  int status = 0;
  if (pid > 0) ::waitpid(pid, &status, 0);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? size : 0;
}

TEST(StreamCheckpointSize, FilledSampleCheckpointIsUnder100kB) {
  for (const parse::SystemId system : parse::kAllSystems) {
    SCOPED_TRACE(parse::system_name(system));
    const std::uint64_t size = checkpoint_size_in_own_process(system);
    EXPECT_GT(size, 0u);
    EXPECT_LT(size, 100'000u);
  }
}

}  // namespace
}  // namespace wss
