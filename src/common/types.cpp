#include "common/types.h"

#include <cassert>
#include <cmath>

namespace asdf {
namespace {

// Fixed log epoch: 2008-04-15 14:00:00,000 — the date appearing in the
// paper's Figure 5 log snippet. Only time differences matter to the
// analyses; a fixed epoch keeps golden-file tests stable.
constexpr int kEpochYear = 2008;
constexpr int kEpochMonth = 4;
constexpr int kEpochDay = 15;
constexpr int kEpochHour = 14;

constexpr int kDaysPerMonth[12] = {31, 29, 31, 30, 31, 30,
                                   31, 31, 30, 31, 30, 31};

/// Writes `v` (0 <= v < 10^width) as exactly `width` zero-padded digits.
void putDigits(char* p, long long v, int width) {
  for (int i = width - 1; i >= 0; --i) {
    p[i] = static_cast<char>('0' + v % 10);
    v /= 10;
  }
}

/// Reads exactly `width` decimal digits; false on any other character.
bool getDigits(const char* p, int width, int& out) {
  int v = 0;
  for (int i = 0; i < width; ++i) {
    const unsigned d = static_cast<unsigned char>(p[i]) - '0';
    if (d > 9) return false;
    v = v * 10 + static_cast<int>(d);
  }
  out = v;
  return true;
}

}  // namespace

void appendLogTimestamp(std::string& out, SimTime t) {
  if (t < 0) t = 0;
  const auto totalMillis = static_cast<long long>(std::llround(t * 1000.0));
  long long millis = totalMillis % 1000;
  long long totalSeconds = totalMillis / 1000;
  long long seconds = totalSeconds % 60;
  long long totalMinutes = totalSeconds / 60;
  long long minutes = totalMinutes % 60;
  long long totalHours = totalMinutes / 60 + kEpochHour;
  long long hours = totalHours % 24;
  long long days = totalHours / 24;

  int day = kEpochDay + static_cast<int>(days);
  int month = kEpochMonth;
  int year = kEpochYear;
  while (day > kDaysPerMonth[month - 1]) {
    day -= kDaysPerMonth[month - 1];
    ++month;
    if (month > 12) {
      month = 1;
      ++year;
    }
  }

  // Four year digits last about 8000 simulated years.
  assert(year <= 9999);
  const std::size_t at = out.size();
  out.resize(at + kLogTimestampLen);
  char* p = out.data() + at;
  putDigits(p, year, 4);
  p[4] = '-';
  putDigits(p + 5, month, 2);
  p[7] = '-';
  putDigits(p + 8, day, 2);
  p[10] = ' ';
  putDigits(p + 11, hours, 2);
  p[13] = ':';
  putDigits(p + 14, minutes, 2);
  p[16] = ':';
  putDigits(p + 17, seconds, 2);
  p[19] = ',';
  putDigits(p + 20, millis, 3);
}

std::string formatLogTimestamp(SimTime t) {
  std::string out;
  appendLogTimestamp(out, t);
  return out;
}

SimTime parseLogTimestamp(std::string_view text) {
  // Only the fixed layout the writer produces is read, optionally
  // followed by a non-digit (the rest of a log line).
  if (text.size() < kLogTimestampLen) return kNoTime;
  if (text.size() > kLogTimestampLen &&
      static_cast<unsigned>(text[kLogTimestampLen] - '0') <= 9) {
    return kNoTime;
  }
  const char* p = text.data();
  int year = 0, month = 0, day = 0, hour = 0, minute = 0, second = 0,
      milli = 0;
  if (!getDigits(p, 4, year) || p[4] != '-' || !getDigits(p + 5, 2, month) ||
      p[7] != '-' || !getDigits(p + 8, 2, day) || p[10] != ' ' ||
      !getDigits(p + 11, 2, hour) || p[13] != ':' ||
      !getDigits(p + 14, 2, minute) || p[16] != ':' ||
      !getDigits(p + 17, 2, second) || p[19] != ',' ||
      !getDigits(p + 20, 3, milli)) {
    return kNoTime;
  }
  if (year < kEpochYear || month < 1 || month > 12 || day < 1) return kNoTime;

  // Days elapsed since the epoch date (single-year spans are all the
  // simulator produces, but handle year wrap for robustness).
  long long days = 0;
  int y = kEpochYear, m = kEpochMonth, d = kEpochDay;
  while (y < year || m < month || d < day) {
    ++d;
    ++days;
    if (d > kDaysPerMonth[m - 1]) {
      d = 1;
      ++m;
      if (m > 12) {
        m = 1;
        ++y;
      }
    }
    if (days > 400000) return kNoTime;  // malformed / runaway
  }

  const long long totalSeconds = ((days * 24 + hour - kEpochHour) * 60 +
                                  minute) * 60 + second;
  if (totalSeconds < 0) return kNoTime;
  return static_cast<SimTime>(totalSeconds) + milli / 1000.0;
}

}  // namespace asdf
