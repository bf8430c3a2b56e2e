#include "util/supervisor.h"

namespace specinfer {
namespace util {

SupervisorPolicy::SupervisorPolicy(SupervisorConfig cfg)
    : cfg_(cfg), rng_(cfg.jitterSeed)
{
}

void
SupervisorPolicy::onChildStart(uint64_t now_millis)
{
    startMillis_ = now_millis;
    started_ = true;
}

SupervisorPolicy::Decision
SupervisorPolicy::onChildExit(uint64_t now_millis)
{
    Decision out;
    ++totalCrashes_;

    // A stable stretch of uptime resets the ladder: the crash that
    // ends a long-lived child is an isolated incident, not the next
    // rung of a loop.
    if (started_ && now_millis - startMillis_ >=
                        cfg_.stableUptimeMillis)
        consecutive_ = 0;
    ++consecutive_;
    out.consecutiveCrashes = consecutive_;

    // Sliding-window crash-loop detection. The window holds raw
    // timestamps (not a counter) so a burst followed by quiet truly
    // ages out.
    if (cfg_.crashLoopWindowMillis > 0 &&
        cfg_.crashLoopCrashes > 0) {
        recentCrashes_.push_back(now_millis);
        while (!recentCrashes_.empty() &&
               now_millis - recentCrashes_.front() >=
                   cfg_.crashLoopWindowMillis)
            recentCrashes_.pop_front();
        if (recentCrashes_.size() >= cfg_.crashLoopCrashes) {
            out.action = Action::GiveUp;
            return out;
        }
    }

    // Backoff base 2^(k-1) * backoffBaseMillis, capped and jittered:
    // restarting fleets de-synchronize while every schedule replays
    // from the seed. One draw per restart, granted or not, keeps the
    // cursor aligned with the decision count.
    out.delayMillis =
        jitteredBackoff(rng_, cfg_.backoffBaseMillis, consecutive_ - 1,
                        cfg_.backoffCapMillis);
    out.action = Action::Restart;
    ++restarts_;
    return out;
}

} // namespace util
} // namespace specinfer
