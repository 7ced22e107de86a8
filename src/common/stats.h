/**
 * @file
 * Light-weight statistics primitives: scalar counters, ratios,
 * frequency distributions, and running averages.
 */

#ifndef SIGCOMP_COMMON_STATS_H_
#define SIGCOMP_COMMON_STATS_H_

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/types.h"

namespace sigcomp
{

/** A named monotonically increasing counter. */
class Counter
{
  public:
    Counter() = default;

    void inc(Count n = 1) { value_ += n; }
    void reset() { value_ = 0; }
    Count value() const { return value_; }

  private:
    Count value_ = 0;
};

/**
 * Running scalar average over samples.
 */
class Average
{
  public:
    void
    sample(double v)
    {
        sum_ += v;
        ++n_;
    }

    double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
    Count samples() const { return n_; }

    void
    reset()
    {
        sum_ = 0.0;
        n_ = 0;
    }

  private:
    double sum_ = 0.0;
    Count n_ = 0;
};

/**
 * Frequency distribution over a small key domain (e.g. the eight
 * significance patterns or the 64 MIPS function codes).
 */
template <typename Key>
class Distribution
{
  public:
    void
    record(const Key &k, Count n = 1)
    {
        counts_[k] += n;
        total_ += n;
    }

    Count total() const { return total_; }

    Count
    count(const Key &k) const
    {
        auto it = counts_.find(k);
        return it == counts_.end() ? 0 : it->second;
    }

    /** Fraction of all samples carrying key @p k, in [0, 1]. */
    double
    fraction(const Key &k) const
    {
        return total_ ? static_cast<double>(count(k)) /
                            static_cast<double>(total_)
                      : 0.0;
    }

    /** Keys sorted by descending frequency. */
    std::vector<std::pair<Key, Count>>
    ranked() const
    {
        std::vector<std::pair<Key, Count>> v(counts_.begin(),
                                             counts_.end());
        std::stable_sort(v.begin(), v.end(),
                         [](const auto &a, const auto &b) {
                             return a.second > b.second;
                         });
        return v;
    }

    const std::map<Key, Count> &raw() const { return counts_; }

    /**
     * Add every count of @p other into this distribution. A key is
     * created only for a nonzero count, so merging per-part tallies
     * leaves exactly the key set one combined tally would.
     */
    void
    merge(const Distribution &other)
    {
        for (const auto &[k, n] : other.counts_)
            if (n != 0)
                record(k, n);
    }

    void
    reset()
    {
        counts_.clear();
        total_ = 0;
    }

  private:
    std::map<Key, Count> counts_;
    Count total_ = 0;
};

/**
 * Percentage saving of @p compressed activity versus @p baseline.
 *
 * @return 100 * (1 - compressed/baseline), or 0 when baseline is 0.
 */
inline double
percentSaving(Count compressed, Count baseline)
{
    if (baseline == 0)
        return 0.0;
    return 100.0 * (1.0 - static_cast<double>(compressed) /
                              static_cast<double>(baseline));
}

} // namespace sigcomp

#endif // SIGCOMP_COMMON_STATS_H_
